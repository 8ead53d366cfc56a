package diag

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// testOptions is a small live registry — one counter at 3, one histogram
// with two observations, both published — and one flight ring with one
// event.
func testOptions() Options {
	var b obs.Builder
	hits := b.Counter("test_hits_total", "Hits.")
	lag := b.Histogram("test_lag_us", "Lag.")
	reg := obs.Build(&b, 1)
	sh := reg.Shard(0)
	sh.Add(hits, 3)
	sh.Observe(lag, 40)
	sh.Observe(lag, 60)
	sh.Publish()
	rec := obs.NewFlightRecorder(0)
	rec.Record(1234, obs.EvAdmit, 7, 0)
	return Options{Service: "smoothtest", Registry: reg, Recorders: []*obs.FlightRecorder{rec}}
}

func get(t *testing.T, h http.Handler, url string) (body, contentType string) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, w.Code)
	}
	return w.Body.String(), w.Header().Get("Content-Type")
}

// statusz fetches and decodes /statusz, which must be one valid JSON object.
func statusz(t *testing.T, h http.Handler) map[string]any {
	t.Helper()
	body, ct := get(t, h, "/statusz")
	if ct != "application/json" {
		t.Errorf("/statusz content type %q", ct)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz is not valid JSON: %v\n%s", err, body)
	}
	return st
}

func TestHandlerEndpoints(t *testing.T) {
	h := Handler(testOptions())

	body, ct := get(t, h, "/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE test_hits_total counter\ntest_hits_total 3\n",
		"# TYPE test_lag_us summary\n",
		"test_lag_us_count 2\n",
		"test_lag_us_sum 100\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}

	st := statusz(t, h)
	if st["service"] != "smoothtest" {
		t.Errorf("/statusz names service %v", st["service"])
	}
	metrics, _ := st["metrics"].(map[string]any)
	if metrics["test_hits_total"] != 3.0 {
		t.Errorf("/statusz metrics.test_hits_total = %v, want 3", metrics["test_hits_total"])
	}
	if lag, _ := metrics["test_lag_us"].(map[string]any); lag["count"] != 2.0 {
		t.Errorf("/statusz metrics.test_lag_us = %v, want count 2", metrics["test_lag_us"])
	}
	if _, ok := st["runtime"].(map[string]any)["goroutines"]; !ok {
		t.Error("/statusz has no runtime.goroutines")
	}

	body, ct = get(t, h, "/debug/flightrec")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "shard=0 seq=0 tick=1234 sess=7 kind=admit arg=0\n") {
		t.Errorf("/debug/flightrec (%s):\n%s", ct, body)
	}
	body, ct = get(t, h, "/debug/flightrec?format=json")
	var events []struct {
		Shard, Tick, Sess int
		Kind              string
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil || ct != "application/json" {
		t.Fatalf("/debug/flightrec?format=json (%s) is not a JSON array: %v\n%s", ct, err, body)
	}
	if len(events) != 1 || events[0].Tick != 1234 || events[0].Sess != 7 || events[0].Kind != "admit" {
		t.Errorf("flight events %+v", events)
	}
}

// failAfter is a response writer whose client hangs up after n body bytes.
type failAfter struct {
	http.ResponseWriter
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	n, _ := f.ResponseWriter.Write(p)
	if f.n == 0 {
		return n, errors.New("client hung up")
	}
	return n, nil
}

// TestScrapeErrorsCounted: a response that fails mid-body cannot report the
// error to anyone, so every endpoint counts it and the next /statusz shows
// the count.
func TestScrapeErrorsCounted(t *testing.T) {
	h := Handler(testOptions())
	before := statusz(t, h)["scrape_errors"].(float64)
	urls := []string{"/metrics", "/statusz", "/debug/flightrec", "/debug/flightrec?format=json"}
	for _, url := range urls {
		h.ServeHTTP(&failAfter{httptest.NewRecorder(), 10}, httptest.NewRequest("GET", url, nil))
	}
	if got := statusz(t, h)["scrape_errors"].(float64); got != before+float64(len(urls)) {
		t.Errorf("scrape_errors went %v -> %v across %d failed responses", before, got, len(urls))
	}
}
