// Tests of multipart/form-data submissions, the form the client sends
// inline inputs in and `curl -F` produces: one image submitted every way
// lands on one job identity and one disk entry, and malformed forms are
// refused like malformed JSON envelopes.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fits/client"
	"fits/internal/optbuild"
	"fits/internal/server"
)

// part is one hand-built form part.
type part struct{ name, body string }

// postForm posts the parts, in order, as a multipart/form-data body the way
// curl -F writes it (inputs as file parts) and returns the status and the
// decoded response body.
func postForm(t *testing.T, url string, parts ...part) (int, server.SubmitResponse, server.ErrorResponse) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var w io.Writer
		var err error
		if p.name == "options" {
			w, err = mw.CreateFormField(p.name)
		} else {
			w, err = mw.CreateFormFile(p.name, "img.fw")
		}
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte(p.body))
	}
	mw.Close()
	return post(t, url, mw.FormDataContentType(), buf.Bytes())
}

// post submits body with the given Content-Type and returns the status and
// the decoded 202 or error body.
func post(t *testing.T, url, contentType string, body []byte) (int, server.SubmitResponse, server.ErrorResponse) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok server.SubmitResponse
	var bad server.ErrorResponse
	if resp.StatusCode == http.StatusAccepted {
		json.NewDecoder(resp.Body).Decode(&ok)
	} else {
		json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp.StatusCode, ok, bad
}

// TestMultipartSubmissionIdentity submits one image three ways — multipart
// through the client, a JSON envelope, and a multipart body posted by hand
// with the firmware part first. Each job reports the options it was sent
// and the image's own SubmissionSHA, and the second and third are disk
// hits: the encoding is not part of a submission's identity. A multipart
// body must not fall into the octet-stream shorthand, which would drop its
// options and hash the MIME framing, a fresh boundary on every request.
func TestMultipartSubmissionIdentity(t *testing.T) {
	ctx := context.Background()
	sizeRunner := func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
		return &server.RunOutput{ResultJSON: []byte(fmt.Sprintf(`{"size":%d}`, len(in[0])))}, nil
	}
	srv := mustServer(t, server.Config{Workers: 1, DataDir: t.TempDir(), Runner: sizeRunner})
	ts := httptest.NewServer(srv)
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ts.Close()
	}()
	c := client.New(ts.URL, ts.Client())
	raw := sampleFirmware()
	spec := optbuild.Spec{Scan: true, TopK: 7}
	want := spec
	if err := want.Normalize(); err != nil {
		t.Fatal(err)
	}

	first, err := c.Submit(ctx, raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if st, err := c.Wait(wctx, first.ID, 5*time.Millisecond); err != nil || st.State != server.StateDone {
		t.Fatalf("client submission: %+v, %v", st, err)
	}
	envelope, err := json.Marshal(server.SubmitRequest{Firmware: raw, Options: spec})
	if err != nil {
		t.Fatal(err)
	}
	code, viaJSON, e := post(t, ts.URL+"/v1/jobs", "application/json", envelope)
	if code != http.StatusAccepted {
		t.Fatalf("JSON submission: %d %s", code, e.Error)
	}
	code, viaForm, e := postForm(t, ts.URL+"/v1/jobs", part{"firmware", string(raw)}, part{"options", `{"scan":true,"top_k":7}`})
	if code != http.StatusAccepted {
		t.Fatalf("hand-built multipart submission: %d %s", code, e.Error)
	}

	for i, id := range []string{first.ID, viaJSON.ID, viaForm.ID} {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Options, want) {
			t.Errorf("submission %d: options %+v, want %+v", i, st.Options, want)
		}
		if st.SHA256 != server.SubmissionSHA(raw) {
			t.Errorf("submission %d: sha %s, want the image's %s", i, st.SHA256, server.SubmissionSHA(raw))
		}
	}
	if viaJSON.State != server.StateDone || viaForm.State != server.StateDone {
		t.Errorf("resubmissions answered %s and %s, want disk hits (done at once)", viaJSON.State, viaForm.State)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "fitsd_disk_hits_total 2\n") {
		t.Error("metrics missing fitsd_disk_hits_total 2")
	}
}

// TestMultipartBadRequests covers the refusals of a multipart submission:
// a malformed form is a 400 in the JSON path's style, and an input part
// over the upload limit a 413 — the limit applies to each input, so a diff
// whose two sides each fit is accepted even when together they do not.
func TestMultipartBadRequests(t *testing.T) {
	r := newStubRunner()
	close(r.release)
	srv := mustServer(t, server.Config{Workers: 1, Runner: r.run, MaxUploadBytes: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	full, over := strings.Repeat("x", 64), strings.Repeat("x", 65)
	for _, tc := range []struct {
		route string
		parts []part
		code  int
		msg   string
	}{
		{"/v1/jobs", []part{{"firmwares", "fw"}}, 400, `invalid job request: unknown part "firmwares"`},
		{"/v1/jobs", []part{{"firmware", "fw"}, {"firmware", "fw"}}, 400, `invalid job request: duplicate part "firmware"`},
		{"/v1/jobs", []part{{"options", "{}"}}, 400, `invalid job request: missing part "firmware"`},
		{"/v1/jobs", []part{{"firmware", ""}}, 400, `invalid job request: empty part "firmware"`},
		{"/v1/jobs", []part{{"firmware", "fw"}, {"options", `{"topk":1}`}}, 400, `unknown field "topk"`},
		{"/v1/jobs", []part{{"firmware", "fw"}, {"options", `{"top_k":`}}, 400, "invalid job request: options: unexpected EOF"},
		{"/v1/jobs", []part{{"firmware", "fw"}, {"options", `{"engine":"quantum"}`}}, 400, "quantum"},
		{"/v1/jobs", []part{{"firmware", over}}, 413, "firmware exceeds the 64 byte upload limit"},
		{"/v1/jobs", []part{{"firmware", full}}, 202, ""},
		{"/v1/corpora", []part{{"corpus", "c"}, {"options", "{}"}, {"options", "{}"}}, 400, `invalid corpus request: duplicate part "options"`},
		{"/v1/corpora", []part{{"corpus", over}}, 413, "corpus exceeds the 64 byte upload limit"},
		{"/v1/diffs", []part{{"old_firmware", "old"}}, 400, `invalid diff request: missing part "new_firmware"`},
		{"/v1/diffs", []part{{"old_firmware", "old"}, {"new_firmware", over}}, 413, "firmware exceeds the 64 byte upload limit"},
		{"/v1/diffs", []part{{"new_firmware", full}, {"old_firmware", full}}, 202, ""},
	} {
		code, _, e := postForm(t, ts.URL+tc.route, tc.parts...)
		if code != tc.code || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("%s %v: %d %q, want %d %q", tc.route, tc.parts, code, e.Error, tc.code, tc.msg)
		}
	}
	for _, ct := range []string{"multipart/form-data", "multipart/form-data; boundary=nope"} {
		if code, _, e := post(t, ts.URL+"/v1/jobs", ct, []byte("fw")); code != 400 || !strings.HasPrefix(e.Error, "invalid job request: ") {
			t.Errorf("%q body: %d %q, want 400", ct, code, e.Error)
		}
	}
}
