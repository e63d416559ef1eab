package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccredf/scenario"
)

// getStatus issues one status GET (query included in url) and decodes it.
func getStatus(t *testing.T, client *http.Client, url string) (int, JobStatus) {
	t.Helper()
	resp, b := getBody(t, client, url)
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decode status %q: %v", b, err)
		}
	}
	return resp.StatusCode, st
}

func TestStatusWaitTerminalAnswersAtOnce(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1})
	st := submitScenario(t, client, ts.URL, testScenario(3, 500))
	awaitState(t, client, ts.URL, st.ID, StateDone)

	t0 := time.Now()
	code, got := getStatus(t, client, ts.URL+"/v1/jobs/"+st.ID+"?wait=10s")
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("long-poll on a done job took %v, want an immediate answer", took)
	}
	if code != http.StatusOK || got.State != StateDone {
		t.Fatalf("long-poll on a done job: HTTP %d state %s", code, got.State)
	}
}

// TestStatusWaitAnswersWhenJobEnds: a run cut by its own ?timeout= ends on
// its own schedule; a long-poll pending on it must answer right then, not
// when its wait runs out.
func TestStatusWaitAnswersWhenJobEnds(t *testing.T) {
	srv, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	resp, b := postJSON(t, client, ts.URL+"/v1/jobs?timeout=300ms", testScenario(61, 500_000_000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := srv.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	ended := make(chan time.Time, 1)
	go func() {
		<-j.Done()
		ended <- time.Now()
	}()

	code, got := getStatus(t, client, ts.URL+"/v1/jobs/"+st.ID+"?wait=10s")
	answered := time.Now()
	if code != http.StatusOK || got.State != StateFailed {
		t.Fatalf("long-poll: HTTP %d state %s (%s), want the timed-out job's failed state", code, got.State, got.Error)
	}
	// Nominally a few ms; the margin absorbs a loaded or race-instrumented run.
	if lag := answered.Sub(<-ended); lag > 100*time.Millisecond {
		t.Fatalf("long-poll answered %v after the job ended", lag)
	}
}

func TestStatusWaitRunsOutOnRunningJob(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	st := submitScenario(t, client, ts.URL, testScenario(62, 500_000_000))

	t0 := time.Now()
	code, got := getStatus(t, client, ts.URL+"/v1/jobs/"+st.ID+"?wait=200ms")
	took := time.Since(t0)
	if code != http.StatusOK || got.State.Terminal() {
		t.Fatalf("long-poll on a running job: HTTP %d state %s, want non-terminal", code, got.State)
	}
	if took < 200*time.Millisecond || took > 2*time.Second {
		t.Fatalf("long-poll with wait=200ms answered after %v", took)
	}
}

func TestStatusWaitValidation(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"":      0,
		"0s":    0,
		"250ms": 250 * time.Millisecond,
		"1h":    maxStatusWait, // clamped: a job still running answers non-terminal then
	} {
		got, err := StatusWait(httptest.NewRequest(http.MethodGet, "/v1/jobs/x?wait="+raw, nil))
		if err != nil || got != want {
			t.Errorf("wait=%q: got %v, %v; want %v", raw, got, err, want)
		}
	}

	_, ts, client := newTestService(t, Options{Workers: 1})
	st := submitScenario(t, client, ts.URL, testScenario(3, 500))
	for _, raw := range []string{"soon", "-1s", "5"} {
		resp, b := getBody(t, client, ts.URL+"/v1/jobs/"+st.ID+"?wait="+raw)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "wait") {
			t.Errorf("wait=%q: HTTP %d %s, want 400 naming wait", raw, resp.StatusCode, b)
		}
	}
}

// pendingLongPoll starts a status long-poll straight against the handler
// and returns a channel closed when the handler returns.
func pendingLongPoll(ctx context.Context, srv *Server, id string) <-chan struct{} {
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"?wait=10s", nil).WithContext(ctx)
	released := make(chan struct{})
	go func() {
		defer close(released)
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	return released
}

// TestStatusWaitReleasedByClientAndClose: a client that leaves and a server
// that closes each end a pending long-poll, and no handler goroutine
// outlives them.
func TestStatusWaitReleasedByClientAndClose(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Options{Workers: 1, ChunkSlots: 64})
	scen, err := scenario.Load(strings.NewReader(testScenario(63, 500_000_000)))
	if err != nil {
		t.Fatal(err)
	}
	j, err := srv.SubmitScenario(scen, 0)
	if err != nil {
		t.Fatal(err)
	}
	expectPending := func(released <-chan struct{}) {
		t.Helper()
		select {
		case <-released:
			t.Fatal("long-poll on a running job answered before its wait")
		case <-time.After(100 * time.Millisecond):
		}
	}
	expectReleased := func(released <-chan struct{}, by string) {
		t.Helper()
		select {
		case <-released:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not release the pending long-poll", by)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	released := pendingLongPoll(ctx, srv, j.ID())
	expectPending(released)
	cancel()
	expectReleased(released, "cancelling the request context")

	released = pendingLongPoll(context.Background(), srv, j.ID())
	expectPending(released)
	srv.Close()
	expectReleased(released, "Server.Close")

	checkNoGoroutineLeaks(t, before)
}
