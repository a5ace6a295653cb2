package taint

import (
	"reflect"
	"testing"

	"fits/internal/know"
)

// TestFinding checks the one seam between the engines' alerts and every
// reported view: each source and sink kind renders as its wire string,
// Degraded is carried both ways, and the engine-side fields are dropped.
func TestFinding(t *testing.T) {
	sources := []struct {
		k    SourceKind
		want string
	}{
		{FromCTSRegion, "cts-region"},
		{FromCTSValue, "cts-value"},
		{FromITS, "its"},
		{FromChannel, "xchan"},
	}
	sinks := []struct {
		k    know.SinkKind
		want string
	}{
		{know.SinkOverflow, "buffer-overflow"},
		{know.SinkCommand, "command-hijack"},
		{know.SinkChannelWrite, "channel-write"},
	}
	for _, src := range sources {
		for _, sink := range sinks {
			for _, degraded := range []bool{false, true} {
				a := Alert{
					Binary: "httpd", Site: 0x1234, Func: 0x1200, Sink: "system",
					Kind: sink.k, From: src.k, Degraded: degraded,
					Key: "wl_key", Via: "nvram:wl_key", Filtered: true, Refuted: "u1 < 4 contradicts u1 >= 100",
				}
				want := Finding{
					Binary: "httpd", Site: 0x1234, Func: 0x1200, Sink: "system",
					Kind: sink.want, Source: src.want, Degraded: degraded,
				}
				if got := a.Finding(); got != want {
					t.Errorf("%v/%v degraded=%v: Finding() = %+v, want %+v", src.k, sink.k, degraded, got, want)
				}
			}
		}
	}
	// Key, Via, Filtered and Refuted are not carried: the reported shape is
	// exactly these seven fields.
	var fields []string
	ft := reflect.TypeOf(Finding{})
	for i := 0; i < ft.NumField(); i++ {
		fields = append(fields, ft.Field(i).Name)
	}
	if want := []string{"Binary", "Site", "Func", "Sink", "Kind", "Source", "Degraded"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("Finding fields = %v, want %v", fields, want)
	}
}
