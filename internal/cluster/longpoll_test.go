package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccredf/internal/serve"
)

// scrapeCounter reads one counter from a peer's /metrics page.
func scrapeCounter(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s value %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// onePointSpec is a normalised single-point sweep, the shape of a scattered
// sub-sweep.
func onePointSpec(seed uint64) *serve.SweepSpec {
	return &serve.SweepSpec{
		Protocols:    []string{"ccr-edf"},
		Nodes:        []int{8},
		Loads:        []float64{0.4},
		Localities:   []string{"uniform"},
		Seeds:        []uint64{seed},
		HorizonSlots: 1000,
	}
}

// TestScatterClientMarksForwarded: every request the scatter path sends —
// the sub-sweep submission and the status long-polls — carries the one-hop
// marker naming this node.
func TestScatterClientMarksForwarded(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.RequestURI()+" from "+r.Header.Get(ForwardedHeader))
		mu.Unlock()
		st := serve.JobStatus{ID: "j1", State: serve.StateRunning}
		if r.Method == http.MethodGet && strings.Contains(r.URL.RawQuery, "wait=") {
			st.State = serve.StateFailed // end the await on the first long-poll
		}
		writeJSON(w, http.StatusAccepted, st)
	}))
	defer owner.Close()
	srv := serve.New(serve.Options{Workers: 1})
	defer srv.Close()
	self := "http://127.0.0.1:1"
	n, err := New(Options{Self: self, Peers: []string{self, owner.URL}, Server: srv})
	if err != nil {
		t.Fatal(err)
	}

	sub := onePointSpec(1)
	key, err := serve.SweepKey(sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.runPointRemote(context.Background(), NormalizePeer(owner.URL), sub, key); err == nil {
		t.Fatal("runPointRemote succeeded on a failed job")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"POST /v1/sweeps from " + self,
		"GET /v1/jobs/j1?wait=1s from " + self,
	}
	if strings.Join(seen, "\n") != strings.Join(want, "\n") {
		t.Fatalf("owner saw:\n%s\nwant:\n%s", strings.Join(seen, "\n"), strings.Join(want, "\n"))
	}
}

// TestMarkedSubSweepRunsWhereSent: a marked sub-sweep posted to a peer
// whose ring view names another owner runs on that peer — never a second
// hop — and leaves its forwards counter unchanged.
func TestMarkedSubSweepRunsWhereSent(t *testing.T) {
	peers := newTestCluster(t, 3, nil, false)
	var sub *serve.SweepSpec
	var via *testPeer
	for seed := uint64(1); seed <= 64 && via == nil; seed++ {
		sub = onePointSpec(seed)
		key, err := serve.SweepKey(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range peers {
			if p.node.owner(key) != p.url {
				via = p
				break
			}
		}
	}
	if via == nil {
		t.Fatal("no seed in 1..64 has a non-owner peer")
	}

	before := scrapeCounter(t, via.url, "ccr_cluster_forwards_total")
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, via.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "http://coordinator")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("marked submit: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("marked submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := via.srv.Job(st.ID)
	if !ok {
		t.Fatalf("job %s is not on the peer it was sent to", st.ID)
	}
	awaitResult(t, via.srv, j)
	if after := scrapeCounter(t, via.url, "ccr_cluster_forwards_total"); after != before {
		t.Fatalf("ccr_cluster_forwards_total went %d -> %d on a marked submission", before, after)
	}
}

// TestProxiedLongPollOutlastsForwardTimeout: a status long-poll proxied
// through a non-owner may sit at the owner longer than ForwardTimeout; it
// must come back 200 with the terminal state, not be cut into a 502.
func TestProxiedLongPollOutlastsForwardTimeout(t *testing.T) {
	peers := newTestCluster(t, 2, nil, false, func(o *Options) {
		o.ForwardTimeout = 200 * time.Millisecond
	})
	entry := peers[0]
	var body string
	for seed := uint64(1); seed <= 64; seed++ {
		s := testScenario(seed, 500_000_000)
		key, ok := entry.node.submissionKey(kindSim, []byte(s))
		if !ok {
			t.Fatalf("seed %d: scenario did not parse", seed)
		}
		if entry.node.owner(key) != entry.url {
			body = s
			break
		}
	}
	if body == "" {
		t.Fatal("no seed in 1..64 is owned by the other peer")
	}

	// An unbounded run cut by its own timeout ends, failed, after ~500 ms.
	resp, err := http.Post(entry.url+"/v1/jobs?timeout=500ms", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	if _, local := entry.srv.Job(st.ID); local {
		t.Fatal("job was not forwarded to its owner")
	}

	resp, err = http.Get(entry.url + "/v1/jobs/" + st.ID + "?wait=5s")
	if err != nil {
		t.Fatalf("long-poll: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied long-poll: HTTP %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("proxied long-poll answered %s, want the job's terminal state", st.State)
	}
}
