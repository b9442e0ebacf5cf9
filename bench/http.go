package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one HTTP connection: the writer and the reader each own one,
// so the server never sees more than two. Replies are read into buf, which
// the next request overwrites — the harness shares two cores with the
// server, so it allocates (and collects) as little as it can.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
	// received counts every byte read off the connection, headers included,
	// so the writer can tell the reader's replies from its own in the
	// server's write counter.
	received atomic.Int64
}

func newClient() *client {
	c := &client{}
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &c.received}, nil
		},
	}}
	return c
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// do sends one request and reads the whole response body. The returned
// bytes are only valid until the client's next request.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// tally counts operations. A failed operation — non-2xx, transport error
// or a violated check — contributes no latency sample.
type tally struct {
	attempted, failed int
	firstFailures     []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.firstFailures) < 5 {
		t.firstFailures = append(t.firstFailures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.firstFailures {
		if len(t.firstFailures) < 5 {
			t.firstFailures = append(t.firstFailures, f)
		}
	}
}

// plan sizes the fixed-count phases around the timed steady phase.
type plan struct {
	steady   time.Duration
	restarts int
	// coldSetups is how many times the server is set up from nothing. An
	// in-memory server's restart is itself a cold setup, so its restarts
	// count towards this.
	coldSetups int
}

func planFor(w workload, seconds float64, quick bool) plan {
	p := plan{steady: time.Duration(seconds * float64(time.Second)), restarts: 3, coldSetups: 3}
	if !w.Durable {
		p.restarts = 2
	}
	if quick {
		p.restarts, p.coldSetups = 1, 1
	}
	return p
}

// httpRun drives one workload's lifecycle against real server
// subprocesses and collects client-side samples by metric name.
type httpRun struct {
	w    workload
	in   *inputs
	bin  string
	dir  string
	plan plan

	wc, rc  *client
	m       map[string]samples
	ops     tally
	servers []*server
	srv     *server
	dataDir string
	nextDir int

	ackedDocs  int
	ackedBytes int64
	cycles     int
	cpuSeconds float64
	// lastIncremental is the body of the newest non-fresh resolve, for the
	// incremental == full check.
	lastIncremental []byte
	fps             []float64
}

func (r *httpRun) add(name string, v float64) { r.m[name] = append(r.m[name], v) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type incrementalStats struct {
	Blocks         int `json:"blocks"`
	ReusedBlocks   int `json:"reused_blocks"`
	PreparedBlocks int `json:"prepared_blocks"`
	TrivialBlocks  int `json:"trivial_blocks"`
}

type blockResult struct {
	Name   string `json:"name"`
	Labels []int  `json:"labels"`
}

type resolveResponse struct {
	Docs        int                   `json:"docs"`
	Blocks      []blockResult         `json:"blocks"`
	Average     *struct{ Fp float64 } `json:"average"`
	Incremental incrementalStats      `json:"incremental"`
}

// resolve posts one incremental resolve and returns the reply's
// "incremental" stats, the raw body and the wall time from request sent to
// body fully read. Only the stats object is decoded: a reply lists every
// block (200+ KB at 6k docs), and parsing all of it after every request
// would take CPU from the server being measured. decodeResolve reads the
// rest when a check needs it.
func (r *httpRun) resolve(ctx context.Context, body string) (incrementalStats, []byte, time.Duration, error) {
	var st incrementalStats
	start := time.Now()
	status, raw, err := r.wc.do(ctx, "POST", r.srv.base+"/v1/resolve/incremental", []byte(body))
	wall := time.Since(start)
	if err != nil {
		return st, nil, 0, err
	}
	if status != 200 {
		return st, nil, 0, fmt.Errorf("resolve answered %d: %.200s", status, raw)
	}
	at := bytes.LastIndex(raw, []byte(`"incremental":`))
	if at < 0 {
		return st, nil, 0, fmt.Errorf("resolve reply has no incremental stats: %.200s", raw)
	}
	if err := json.NewDecoder(bytes.NewReader(raw[at+len(`"incremental":`):])).Decode(&st); err != nil {
		return st, nil, 0, fmt.Errorf("decoding incremental stats: %w", err)
	}
	return st, raw, wall, nil
}

func decodeResolve(raw []byte) (*resolveResponse, error) {
	var resp resolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding resolve reply: %w", err)
	}
	return &resp, nil
}

// ingest posts one batch and polls its job back-to-back until it is done;
// the returned wall time is request sent → "done" observed.
func (r *httpRun) ingest(ctx context.Context, body []byte) (time.Duration, error) {
	start := time.Now()
	status, raw, err := r.wc.do(ctx, "POST", r.srv.base+"/v1/collections", body)
	if err != nil {
		return 0, err
	}
	if status != 202 {
		return 0, fmt.Errorf("ingest answered %d: %.200s", status, raw)
	}
	var ack struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.StatusURL == "" {
		return 0, fmt.Errorf("ingest reply has no status_url: %.200s", raw)
	}
	for {
		status, raw, err := r.wc.do(ctx, "GET", r.srv.base+ack.StatusURL, nil)
		if err != nil {
			return 0, err
		}
		var job struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if status != 200 || json.Unmarshal(raw, &job) != nil {
			return 0, fmt.Errorf("job poll answered %d: %.200s", status, raw)
		}
		switch job.Status {
		case "done":
			return time.Since(start), nil
		case "failed", "canceled":
			return 0, fmt.Errorf("ingest job %s: %s", job.Status, job.Error)
		}
	}
}

// setup brings a server from nothing to its first acknowledged resolve:
// exec → /readyz → bulk load → full resolve. Every call adds one setup_s
// sample, the batch rates and one full-resolve sample.
func (r *httpRun) setup(ctx context.Context) error {
	start := time.Now()
	if err := r.start(ctx); err != nil {
		return err
	}
	r.ackedDocs, r.ackedBytes = 0, 0
	skip := len(r.in.bulkBodies) / 10
	for i, body := range r.in.bulkBodies {
		r.ops.attempted++
		wall, err := r.ingest(ctx, body)
		if err != nil {
			r.ops.fail("bulk batch %d: %v", i, err)
			return fmt.Errorf("bulk load: %w", err)
		}
		r.ackedDocs += r.w.DocsPer
		r.ackedBytes += int64(len(body))
		if i >= skip {
			r.add("bulk_ingest_docs_per_s", float64(r.w.DocsPer)/wall.Seconds())
		}
	}
	if r.fullResolve(ctx, `{}`) == nil {
		return fmt.Errorf("setup: the first resolve failed")
	}
	r.add("setup_s", time.Since(start).Seconds())
	return nil
}

// fullResolve runs one resolve that must prepare every block (a fresh
// server's first, or {"fresh":true}), samples its throughput and returns
// the decoded reply; nil (with the failure tallied) when it went wrong.
func (r *httpRun) fullResolve(ctx context.Context, body string) *resolveResponse {
	r.ops.attempted++
	st, raw, wall, err := r.resolve(ctx, body)
	if err != nil {
		r.ops.fail("full resolve: %v", err)
		return nil
	}
	resp, err := decodeResolve(raw)
	if err != nil || st.ReusedBlocks != 0 || st.PreparedBlocks+st.TrivialBlocks != st.Blocks || resp.Docs != r.ackedDocs || resp.Average == nil {
		r.ops.fail("full resolve: %+v (err %v), want every block of the %d acknowledged docs prepared and scored", st, err, r.ackedDocs)
		return nil
	}
	r.add("full_resolve_docs_per_s", float64(resp.Docs)/wall.Seconds())
	return resp
}

// start execs a server on the current data directory (a fresh one when
// none is set and the workload is durable) and waits for /readyz.
func (r *httpRun) start(ctx context.Context) error {
	if r.w.Durable && r.dataDir == "" {
		r.nextDir++
		r.dataDir = filepath.Join(r.dir, fmt.Sprintf("data-%d", r.nextDir))
	}
	// The port is picked by binding and releasing it, so another process
	// can take it before the server binds; try again on a fresh one.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var srv *server
		if srv, err = startServer(ctx, r.bin, r.dataDir, filepath.Join(r.dir, "server.log")); err != nil {
			return err
		}
		r.srv = srv
		r.servers = append(r.servers, srv)
		if err = srv.waitReady(ctx, r.wc); err == nil {
			return nil
		}
		srv.kill()
	}
	return err
}

// stop SIGKILLs the current server and drops both connections to it.
func (r *httpRun) stop() {
	if r.srv != nil {
		r.srv.kill()
	}
	r.wc.hc.CloseIdleConnections()
	r.rc.hc.CloseIdleConnections()
}

type member struct {
	Collection string `json:"collection"`
	Pos        int    `json:"pos"`
}

type entityResponse struct {
	Entity struct {
		ID      string   `json:"id"`
		Members []member `json:"members"`
	} `json:"entity"`
}

func docEntityPath(collection string, pos int) string {
	return "/v1/docs/" + url.PathEscape(collection+":"+strconv.Itoa(pos)) + "/entity"
}

// checkDocEntity decodes a doc-lookup reply and checks the entity holds
// the document asked for.
func checkDocEntity(raw []byte, collection string, pos int) (*entityResponse, error) {
	var resp entityResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	for _, m := range resp.Entity.Members {
		if m.Collection == collection && m.Pos == pos {
			return &resp, nil
		}
	}
	return nil, fmt.Errorf("entity %s does not contain %s:%d", resp.Entity.ID, collection, pos)
}

func (c *client) docEntity(ctx context.Context, base, collection string, pos int) (*entityResponse, error) {
	status, raw, err := c.do(ctx, "GET", base+docEntityPath(collection, pos), nil)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("doc lookup answered %d: %.200s", status, raw)
	}
	return checkDocEntity(raw, collection, pos)
}

// steady runs the writer (closed loop) and the reader (open loop) side by
// side for the planned wall time.
func (r *httpRun) steady(ctx context.Context) {
	cpu0, _ := procCPUSeconds(r.srv.pid)
	deadline := time.Now().Add(r.plan.steady)
	var wg sync.WaitGroup
	var readerOps tally
	readerSamples := map[string]samples{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.reader(ctx, deadline, &readerOps, readerSamples)
	}()
	r.writer(ctx, deadline)
	wg.Wait()
	r.ops.merge(&readerOps)
	for name, s := range readerSamples {
		r.m[name] = append(r.m[name], s...)
	}
	if cpu1, err := procCPUSeconds(r.srv.pid); err == nil {
		r.cpuSeconds = cpu1 - cpu0
	}
}

// writer: append 2 docs to one collection (round-robin) → wait for the job
// → delta resolve → no-change resolve.
func (r *httpRun) writer(ctx context.Context, deadline time.Time) {
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		ci := i % len(r.in.deltaCols)
		body := r.in.deltaBodies[ci][(i/len(r.in.deltaCols))%deltaRounds]
		r.ops.attempted++
		written0, ioErr := r.serverWrote()
		wall, err := r.ingest(ctx, body)
		if err != nil {
			r.ops.fail("steady ingest %d: %v", i, err)
			continue
		}
		r.ackedDocs += deltaDocs
		r.ackedBytes += int64(len(body))
		r.add("ingest_commit_ms_p50", ms(wall))

		r.ops.attempted++
		st, raw, wall, err := r.resolve(ctx, `{}`)
		switch {
		case err != nil:
			r.ops.fail("delta resolve %d: %v", i, err)
			continue
		case st.PreparedBlocks != 1 || st.ReusedBlocks != st.Blocks-1:
			r.ops.fail("delta resolve %d: %+v, want exactly 1 dirty block", i, st)
			continue
		}
		r.lastIncremental = append(r.lastIncremental[:0], raw...)
		r.cycles++
		r.add("delta_resolve_ms_p50", ms(wall))
		r.add("resolve_response_kb", float64(len(raw))/1024)
		if written1, err := r.serverWrote(); err == nil && ioErr == nil {
			r.add("delta_write_kb", float64(written1-written0)/1024)
		}

		r.noChange(ctx, "nochange_resolve_ms_p50")
	}
}

// serverWrote is how many bytes the server has passed to write(2) — data
// directory, journal, log, replies — other than the reader's replies, whose
// number inside a writer cycle depends on how long the cycle takes.
func (r *httpRun) serverWrote() (int64, error) {
	n, err := procWriteBytes(r.srv.pid)
	return n - r.rc.received.Load(), err
}

// noChange resolves with nothing new in the store; every block must be
// reused.
func (r *httpRun) noChange(ctx context.Context, metric string) bool {
	r.ops.attempted++
	st, raw, wall, err := r.resolve(ctx, `{}`)
	switch {
	case err != nil:
		r.ops.fail("no-change resolve: %v", err)
		return false
	case st.ReusedBlocks != st.Blocks:
		r.ops.fail("no-change resolve: %+v, want every block reused", st)
		return false
	}
	r.lastIncremental = append(r.lastIncremental[:0], raw...)
	r.add(metric, ms(wall))
	return true
}

// spinWindow is how long before a request's due time the reader stops
// sleeping and busy-waits. time.Sleep wakes through the netpoller's
// millisecond-granular timeout and overshoots by most of a millisecond —
// more than a whole read takes — so the reader sleeps in nanosleep(2),
// which is good to the kernel's 50 µs timer slack, and spins only the
// rest. A longer spin would be steadier still but takes a core from the
// server it is measuring (2 ms of spin per request slowed delta resolves
// by a quarter).
const spinWindow = 150 * time.Microsecond

func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the spin
	}
	for time.Now().Before(due) {
	}
}

// reader sends the pre-drawn read sequence at readRate on one connection.
// Latency runs from each request's due time, so a stall charges every
// request queued behind it; the generator's own lateness is reported too.
func (r *httpRun) reader(ctx context.Context, deadline time.Time, ops *tally, out map[string]samples) {
	const period = time.Second / readRate
	stableFrom := len(r.in.deltaCols)
	var stableIDs []string
	start := time.Now()
	for k, op := range r.in.reads {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) || ctx.Err() != nil {
			return
		}
		sleepUntil(due)
		sent := time.Now()
		ops.attempted++
		col := r.in.initial[op.Col]
		kind, id := op.Kind, ""
		if kind == readEntity && len(stableIDs) == 0 {
			kind = readDoc // no stable ID learned yet
		}
		var u string
		switch kind {
		case readEntity:
			id = stableIDs[(op.Col*r.w.DocsPer+op.Pos)%len(stableIDs)]
			u = "/v1/entities/" + id
		case readSearch:
			u = "/v1/search?name=" + url.QueryEscape(col.Name)
		default:
			u = docEntityPath(col.Name, op.Pos)
		}
		status, raw, err := r.rc.do(ctx, "GET", r.srv.base+u, nil)
		latency := time.Since(due)
		if err == nil && status != 200 {
			err = fmt.Errorf("answered %d: %.200s", status, raw)
		}
		if err == nil {
			switch kind {
			case readEntity:
				var resp entityResponse
				if json.Unmarshal(raw, &resp) != nil || resp.Entity.ID != id {
					err = fmt.Errorf("entity reply is not %s: %.200s", id, raw)
				}
			case readSearch:
				var resp struct {
					Hits []struct {
						Entity struct{ Block string } `json:"entity"`
					} `json:"hits"`
				}
				if json.Unmarshal(raw, &resp) != nil || len(resp.Hits) == 0 || resp.Hits[0].Entity.Block != col.Name {
					err = fmt.Errorf("search found no cluster of block %q: %.200s", col.Name, raw)
				}
			default:
				var resp *entityResponse
				if resp, err = checkDocEntity(raw, col.Name, op.Pos); err == nil && op.Col >= stableFrom && len(stableIDs) < 512 {
					stableIDs = append(stableIDs, resp.Entity.ID)
				}
			}
		}
		if err != nil {
			ops.fail("read %d %s: %v", k, u, err)
			continue
		}
		out["read_ms_p50"] = append(out["read_ms_p50"], ms(latency))
		out["read_late_ms"] = append(out["read_late_ms"], ms(sent.Sub(due)))
	}
}

// finalFull forces one full re-resolve of the grown store and checks its
// clusters equal the last incremental reply's (incremental == full).
func (r *httpRun) finalFull(ctx context.Context) {
	full := r.fullResolve(ctx, `{"fresh":true}`)
	if full == nil {
		return
	}
	r.ops.attempted++
	inc, err := decodeResolve(r.lastIncremental)
	if err != nil || !reflect.DeepEqual(full.Blocks, inc.Blocks) {
		r.ops.fail("fresh resolve differs from the last incremental one (err %v)", err)
	}
}

// oneshot posts the corpus's first collections to the stateless
// POST /v1/resolve once — the paper's batch use of the same compute,
// touching neither store nor persist nor serving — and records throughput
// and Fp, which must not move between a run's passes.
func (r *httpRun) oneshot(ctx context.Context) {
	r.ops.attempted++
	start := time.Now()
	status, raw, err := r.wc.do(ctx, "POST", r.srv.base+"/v1/resolve", r.in.oneshotBody)
	wall := time.Since(start)
	var resp resolveResponse
	if err == nil && status == 200 {
		err = json.Unmarshal(raw, &resp)
	}
	switch {
	case err != nil || status != 200 || resp.Average == nil || len(resp.Blocks) == 0:
		r.ops.fail("oneshot resolve: status %d err %v", status, err)
	case len(r.fps) > 0 && resp.Average.Fp != r.fps[0]:
		r.ops.fail("oneshot Fp moved between passes: %v then %v", r.fps[0], resp.Average.Fp)
	default:
		r.fps = append(r.fps, resp.Average.Fp)
		r.add("oneshot_docs_per_s", float64(r.in.oneshotDocs)/wall.Seconds())
		r.add("resolve_fp", resp.Average.Fp)
	}
}

// checkHealth asserts the store holds exactly the acknowledged documents.
func (r *httpRun) checkHealth(ctx context.Context) {
	r.ops.attempted++
	status, raw, err := r.wc.do(ctx, "GET", r.srv.base+"/healthz", nil)
	var h struct {
		Store struct{ Docs int } `json:"store"`
	}
	if err != nil || status != 200 || json.Unmarshal(raw, &h) != nil || h.Store.Docs != r.ackedDocs {
		r.ops.fail("healthz: status %d err %v docs %d, acknowledged %d", status, err, h.Store.Docs, r.ackedDocs)
	}
}

// restart kills the server mid-life and times how long until a client has
// its answers back. A durable server recovers from its data directory; an
// in-memory one has nothing, so its client reloads the corpus — which is
// what recovery costs without -data, and one more cold setup.
func (r *httpRun) restart(ctx context.Context) error {
	// The last collection never receives deltas, so its entity survives
	// both kinds of recovery unchanged.
	probeCol := r.in.initial[len(r.in.initial)-1].Name
	r.ops.attempted++
	before, err := r.wc.docEntity(ctx, r.srv.base, probeCol, 0)
	if err != nil {
		r.ops.fail("pre-kill lookup: %v", err)
		return nil
	}
	killed := time.Now()
	r.stop()
	if r.w.Durable {
		if err := r.start(ctx); err != nil {
			return err
		}
	} else {
		if err := r.setup(ctx); err != nil {
			return err
		}
	}
	ready := time.Since(killed)
	r.ops.attempted++
	after, err := r.wc.docEntity(ctx, r.srv.base, probeCol, 0)
	if err != nil || !reflect.DeepEqual(before, after) {
		r.ops.fail("post-restart lookup differs from pre-kill (err %v)", err)
		return nil
	}
	if !r.noChange(ctx, "restart_first_resolve_ms") {
		return nil
	}
	r.add("restart_recover_ms", ms(time.Since(killed)))
	r.add("restart_ready_ms", ms(ready))
	r.checkHealth(ctx)
	return nil
}

// run executes the whole lifecycle. It returns an error only when the run
// cannot continue; failed operations are in r.ops.
func (r *httpRun) run(ctx context.Context) error {
	defer r.stop()
	mark := time.Now()
	phase := func(name string) {
		fmt.Printf("phase %-12s %6.2f s\n", name, time.Since(mark).Seconds())
		mark = time.Now()
	}
	if err := r.setup(ctx); err != nil {
		return err
	}
	r.oneshot(ctx)
	phase("setup")
	r.steady(ctx)
	r.checkHealth(ctx)
	phase("steady")
	r.finalFull(ctx)
	phase("full")
	if r.w.Durable {
		if n, err := dirBytes(r.dataDir); err == nil {
			r.add("persist.disk_bytes_per_doc_byte", float64(n)/float64(r.ackedBytes))
		}
	}
	// The fixed-count tail. One-shot passes are spread between the restarts
	// and cold setups rather than run back to back: this sandbox speeds up
	// and slows down in multi-second phases, and samples taken seconds
	// apart do not all land in the same one.
	r.oneshot(ctx)
	setups := 1
	for i := 0; i < r.plan.restarts; i++ {
		if err := r.restart(ctx); err != nil {
			return err
		}
		if !r.w.Durable {
			setups++
		}
		r.oneshot(ctx)
	}
	phase("restarts")
	for ; setups < r.plan.coldSetups; setups++ {
		r.stop()
		if r.dataDir != "" {
			if err := os.RemoveAll(r.dataDir); err != nil {
				return err
			}
			r.dataDir = ""
		}
		if err := r.setup(ctx); err != nil {
			return err
		}
		r.oneshot(ctx)
	}
	phase("cold setups")
	r.stop()
	peak := 0.0
	for _, s := range r.servers {
		peak = math.Max(peak, s.peakRSSMB)
	}
	r.add("peak_rss_mb", peak)
	return nil
}
