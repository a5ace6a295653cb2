package main

import (
	"testing"
	"time"
)

// TestRetryPolicy: -retries counts attempts, so a call timeout alone, or a
// -retries below 1 beside one, allows exactly one attempt, never the default
// policy's five.
func TestRetryPolicy(t *testing.T) {
	for _, c := range []struct {
		retries      int
		timeout      time.Duration
		wantPolicy   bool
		wantAttempts int
	}{
		{retries: 1, timeout: 0, wantPolicy: false},
		{retries: 0, timeout: 0, wantPolicy: false},
		{retries: 0, timeout: 5 * time.Second, wantPolicy: true, wantAttempts: 1},
		{retries: -2, timeout: 5 * time.Second, wantPolicy: true, wantAttempts: 1},
		{retries: 1, timeout: 5 * time.Second, wantPolicy: true, wantAttempts: 1},
		{retries: 3, timeout: 0, wantPolicy: true, wantAttempts: 3},
		{retries: 3, timeout: 5 * time.Second, wantPolicy: true, wantAttempts: 3},
	} {
		p, ok := retryPolicy(c.retries, c.timeout)
		if ok != c.wantPolicy {
			t.Errorf("retries %d, timeout %s: policy = %v, want %v", c.retries, c.timeout, ok, c.wantPolicy)
			continue
		}
		if !ok {
			continue
		}
		if p.MaxAttempts != c.wantAttempts || p.CallTimeout != c.timeout {
			t.Errorf("retries %d, timeout %s: attempts %d, call timeout %s; want %d, %s",
				c.retries, c.timeout, p.MaxAttempts, p.CallTimeout, c.wantAttempts, c.timeout)
		}
	}
}
