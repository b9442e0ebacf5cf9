package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkColdResolve prices a fresh server's first incremental resolve,
// the bulk of its time to first resolve: a corpus shaped like the
// benchmark's 6k workloads (150 generated collections × 40 pages, one
// ingest batch each, default knobs) goes in through the real handler,
// untimed, and one POST /v1/resolve/incremental is timed. ns/op, B/op and
// allocs/op cover that request alone; reply_B/op is the size of its reply.
//
//	go test ./internal/service -run xxx -bench ColdResolve -benchmem
func BenchmarkColdResolve(b *testing.B) {
	cols := make([]*corpus.Collection, 150)
	for i := range cols {
		var err error
		if cols[i], err = corpus.GenerateCollection(corpus.CollectionConfig{
			Name: fmt.Sprintf("name%03d", i), NumDocs: 40, NumPersonas: 4,
			Noise: 0.3, MissingInfo: 0.2, Spurious: 0.2, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	benchColdResolve(b, cols)
}

// BenchmarkColdResolvePaper is BenchmarkColdResolve on the paper's shape:
// the 12 × 100 pages of corpus.WWW05Profile(), the collections the
// paper_www05 workload ingests, whose 100-page blocks make extraction,
// matrices and the decision stage nearly all of the request.
func BenchmarkColdResolvePaper(b *testing.B) {
	d, err := corpus.WWW05Profile().Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	benchColdResolve(b, d.Collections)
}

// benchColdResolve times one cold incremental resolve of cols per
// iteration, each on a fresh server that ingested them one batch per
// collection.
func benchColdResolve(b *testing.B, cols []*corpus.Collection) {
	b.ReportAllocs()
	b.StopTimer()
	replyBytes := 0
	for i := 0; i < b.N; i++ {
		srv := New(Config{ErrorLog: func(string, ...any) {}})
		ts := httptest.NewServer(srv.Handler())
		for _, col := range cols {
			ingestBatch(b, ts, []*corpus.Collection{col})
		}
		b.StartTimer()
		resp, err := http.Post(ts.URL+"/v1/resolve/incremental", "application/json", strings.NewReader(`{}`))
		var reply []byte
		if err == nil {
			reply, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		b.StopTimer()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("resolve: %v: %.200s", err, reply)
		}
		replyBytes += len(reply)
		ts.Close()
		if err := srv.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(replyBytes)/float64(b.N), "reply_B/op")
}
