package blocking

import (
	"fmt"
	"testing"
)

// benchRecords builds n records over p distinct person names, each written
// in one of several variants ("john smith", "Smith, John", "J. Smith") —
// the shape candidate-pair generation sees in web-people blocking.
func benchRecords(n int) []Record {
	first := []string{"john", "mary", "andrew", "fernando", "wei", "anna", "david", "laura"}
	last := []string{"smith", "cohen", "mccallum", "pereira", "chen", "novak", "baker", "reyes"}
	records := make([]Record, n)
	for i := range records {
		f := first[i%len(first)]
		l := last[(i/len(first))%len(last)]
		var key string
		switch i % 3 {
		case 0:
			key = fmt.Sprintf("%s %s", f, l)
		case 1:
			key = fmt.Sprintf("%s, %s", l, f)
		default:
			key = fmt.Sprintf("%c. %s", f[0], l)
		}
		records[i] = Record{ID: i, Keys: []string{key}}
	}
	return records
}

// benchScheme reports candidate-pair throughput (pairs/s) and the
// candidate count for one scheme on a fixed record set.
func benchScheme(b *testing.B, s Scheme, n int) {
	records := benchRecords(n)
	var pairs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs = len(s.Candidates(records))
	}
	b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	b.ReportMetric(float64(pairs), "pairs")
}

func BenchmarkExactKey(b *testing.B)      { benchScheme(b, ExactKey{}, 1000) }
func BenchmarkTokenBlocking(b *testing.B) { benchScheme(b, TokenBlocking{}, 1000) }
func BenchmarkCanopy(b *testing.B)        { benchScheme(b, Canopy{Loose: 0.3, Tight: 0.8}, 400) }
