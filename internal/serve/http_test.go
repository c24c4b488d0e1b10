package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (Status, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func TestHTTPSubmitWatchResult(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	st, code := postJob(t, ts, JobSpec{Problem: "sod", N: 64, MaxSteps: 10, ReportEvery: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if st.ID == "" {
		t.Fatal("no job id returned")
	}

	// The watch stream is JSON lines ending with a terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	var last Status
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad watch line %q: %v", sc.Text(), err)
		}
		events++
	}
	if events == 0 {
		t.Fatal("watch delivered no events")
	}
	if last.State != Done {
		t.Fatalf("last watch event state %q, want done", last.State)
	}

	// Status endpoint agrees.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got Status
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != Done || got.Fingerprint == "" {
		t.Fatalf("status %+v, want done with fingerprint", got)
	}

	// Result is the CSV profile.
	resp3, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var csv bytes.Buffer
	csv.ReadFrom(resp3.Body)
	if resp3.StatusCode != http.StatusOK || !strings.HasPrefix(csv.String(), "x,") {
		t.Fatalf("result status %d body %.40q", resp3.StatusCode, csv.String())
	}

	// List knows the job; metrics counted it.
	resp4, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp4.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}
	resp5, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp5.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["accepted"] != 1 || m["completed"] != 1 {
		t.Fatalf("metrics %+v", m)
	}
	// The durability counters ride in the same flat object.
	if _, ok := m["durable_commits"]; !ok {
		t.Fatalf("metrics missing durable counters: %+v", m)
	}
	// A job server drives no transport, so it reports no net_* counters.
	for k := range m {
		if strings.HasPrefix(k, "net_") {
			t.Fatalf("metrics carry transport counter %q: %+v", k, m)
		}
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	s := New(Config{Workers: 1, Quotas: map[string]Quota{"t": {MaxActive: 1}}})
	defer s.Close()
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()

	// Invalid spec: 400.
	if _, code := postJob(t, ts, JobSpec{Problem: "no-such"}); code != http.StatusBadRequest {
		t.Fatalf("invalid spec status %d, want 400", code)
	}
	// Malformed body: 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}
	// Admission rejection: 429 with the reason.
	long := JobSpec{Problem: "sod", N: 256, MaxSteps: 400, TEnd: 10, Tenant: "t"}
	if _, code := postJob(t, ts, long); code != http.StatusAccepted {
		t.Fatalf("first job status %d, want 202", code)
	}
	st, code := postJob(t, ts, long)
	if code != http.StatusTooManyRequests || st.State != RejectedState {
		t.Fatalf("quota-violating job status %d state %q, want 429 rejected", code, st.State)
	}
	// Unknown job: 404.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/watch", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}
