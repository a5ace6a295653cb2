package frontend

import (
	"reflect"
	"slices"
	"testing"
)

func names(kws []Keyword) []string {
	out := []string{}
	for _, k := range kws {
		out = append(out, k.Name)
	}
	return out
}

func TestExtractHTMLForms(t *testing.T) {
	doc := []byte(`<html><body>
<form action="/apply.cgi" method="post">
  <input type="text" name="username" value="admin">
  <input type='password' name='password'>
  <SELECT NAME="timezone"><option>UTC</option></SELECT>
  <textarea name=comment rows=4></textarea>
  <button name="apply" type="submit">Go</button>
  <div name="not_a_form_control"></div>
  <input type="text" name="a b">
  <img src="x.png">
</form></body></html>`)
	got := Extract("www/index.html", doc)
	want := []string{"apply", "comment", "password", "timezone", "username"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("names = %v, want %v", names(got), want)
	}
	for _, k := range got {
		if k.File != "www/index.html" || k.Line < 1 || k.Col < 1 {
			t.Fatalf("bad location: %+v", k)
		}
	}
	// Spot-check one location: "username" starts at line 3.
	if got[len(got)-1].Name != "username" || got[len(got)-1].Line != 3 {
		t.Fatalf("username location = %+v", got[len(got)-1])
	}
}

func TestExtractJSParams(t *testing.T) {
	src := []byte(`function apply(v, tz) {
  fetch("/apply.cgi?wifi_pass=" + encodeURIComponent(v));
  var q = "a=1&ping_host=" + h + "&lang=en";
  formData.append("timezone", tz);
  params.set("dev_alias", alias);
  var notkey = "no params here";
  var url2 = 'x.cgi?single';
}`)
	got := Extract("www/app.js", src)
	want := []string{"a", "dev_alias", "lang", "ping_host", "timezone", "wifi_pass"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("names = %v, want %v", names(got), want)
	}
}

func TestExtractConfigKeys(t *testing.T) {
	conf := []byte(`# defaults pushed to the web UI
ping_host=8.8.8.8
ntp_server = pool.ntp.org
log_level: debug
; comment
[section]
  indented_key=1
broken line without separator
=nokey
`)
	got := Extract("etc/webparams.conf", conf)
	want := []string{"indented_key", "log_level", "ntp_server", "ping_host"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("names = %v, want %v", names(got), want)
	}
}

func TestExtractUnknownExtension(t *testing.T) {
	if got := Extract("bin/httpd", []byte("name=\"x\"")); got != nil {
		t.Fatalf("non-artifact extracted %v", got)
	}
	if Extract("www/a.HTML", nil) == nil {
		t.Fatal("upper-case .HTML not recognized as an artifact")
	}
}

func TestExtractDeterministicAndDeduped(t *testing.T) {
	doc := []byte(`<input name="dup"><input name="dup"><input name="aa">`)
	a := Extract("f.html", doc)
	b := Extract("f.html", doc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("extraction not deterministic")
	}
	// Same name at distinct locations is kept; identical tuples collapse.
	if len(a) != 3 {
		t.Fatalf("got %d keywords, want 3: %v", len(a), a)
	}
	if a[0].Name != "aa" || a[1].Name != "dup" || a[2].Name != "dup" {
		t.Fatalf("order wrong: %v", a)
	}
}

func TestNames(t *testing.T) {
	var names []string
	for _, k := range Extract("f.html", []byte(`<input name="b"><input name="a"><input name="b">`)) {
		names = append(names, k.Name)
	}
	if got := slices.Compact(names); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("names = %v", got)
	}
}

func TestExtractMalformed(t *testing.T) {
	cases := [][]byte{
		[]byte(`<input name="unterminated`),
		[]byte(`<input name=`),
		[]byte(`<`),
		[]byte(`"`),
		[]byte("\"a=\\"),
		[]byte(`key=`),
		{0xff, 0xfe, '<', 'i', 'n', 'p', 'u', 't'},
		{},
	}
	for _, ext := range []string{"x.html", "x.js", "x.conf"} {
		for _, data := range cases {
			for _, k := range Extract(ext, data) {
				checkLocation(t, data, k)
			}
		}
	}
}

// checkLocation asserts a keyword's location points inside the file.
func checkLocation(t *testing.T, data []byte, k Keyword) {
	t.Helper()
	if k.Name == "" || len(k.Name) > 64 {
		t.Fatalf("bad name %q", k.Name)
	}
	if k.Line < 1 || k.Col < 1 {
		t.Fatalf("non-positive location %+v", k)
	}
	// Walk to the claimed location and require the name's bytes there.
	off := 0
	for l := 1; l < k.Line; l++ {
		for off < len(data) && data[off] != '\n' {
			off++
		}
		if off >= len(data) {
			t.Fatalf("line %d out of range for %d bytes", k.Line, len(data))
		}
		off++
	}
	off += k.Col - 1
	if off+len(k.Name) > len(data) {
		t.Fatalf("location %d:%d + %q overruns %d bytes", k.Line, k.Col, k.Name, len(data))
	}
	if string(data[off:off+len(k.Name)]) != k.Name {
		t.Fatalf("location %d:%d does not hold %q", k.Line, k.Col, k.Name)
	}
}
