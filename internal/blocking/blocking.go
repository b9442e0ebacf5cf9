// Package blocking implements candidate-pair generation schemes for entity
// resolution. The paper blocks by exact person name ("we only compute the
// similarity values between documents, which are about a person with the
// same name") and notes that "in general, one needs to consider the
// applicable blocking schemes more carefully" — this package provides that
// generality: exact-key blocking, token blocking and canopy clustering, all
// producing candidate pairs for the pairwise similarity stage.
package blocking

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Record is the unit of blocking: an entity reference with one or more
// blocking keys (for web people search, the person names on the document).
type Record struct {
	// ID identifies the record; pairs are reported as ID pairs.
	ID int
	// Keys are the blocking keys (person names, titles, …).
	Keys []string
}

// Pair is an unordered candidate pair with A < B.
type Pair struct {
	A, B int
}

// normalizePair orders the pair.
func normalizePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Scheme generates candidate pairs from records.
type Scheme interface {
	// Candidates returns the candidate pairs, deduplicated, in
	// deterministic order.
	Candidates(records []Record) []Pair
}

// KeyedScheme is implemented by schemes whose candidate pairs are exactly
// "records sharing a derived index key" — no windows, no pairwise
// similarity, just key equality. Such schemes are the ones an incremental
// posting index (internal/blockindex) can maintain as documents arrive:
// appending a record only ever links it to the existing members of its
// keys' postings, so connected components — and with them the resolution
// blocks — can be updated in O(delta) instead of rebuilt per run.
// ExactKey and TokenBlocking are keyed; Canopy is global (a new record can
// re-seed the whole corpus) and is not.
type KeyedScheme interface {
	Scheme
	// IndexKeys derives the deduplicated index keys of one record from its
	// blocking keys. Two records are candidates under the scheme if and
	// only if their IndexKeys intersect.
	IndexKeys(keys []string) []string
}

// Validator is implemented by schemes with parameters to sanity-check at
// construction; ann.New validates its scheme so a degenerate configuration
// fails fast instead of silently producing a useless candidate set. Canopy
// implements it; the keyed schemes need no check.
type Validator interface {
	Validate() error
}

// SchemeNames are the accepted ParseScheme spellings, in display order for
// its error message.
var SchemeNames = []string{"exact", "token", "canopy"}

// ParseScheme maps a name to a scheme with its default parameters:
// exact-key blocking (the paper's), token blocking with the default minimum
// token length, and canopy clustering with loose/tight thresholds 0.3/0.8.
// Unknown names return an error listing every valid spelling.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "exact":
		return ExactKey{}, nil
	case "token":
		return TokenBlocking{}, nil
	case "canopy":
		return Canopy{Loose: 0.3, Tight: 0.8}, nil
	default:
		return nil, fmt.Errorf("blocking: unknown scheme %q (valid: %s)",
			name, strings.Join(SchemeNames, ", "))
	}
}

// ExactKey blocks records sharing any identical normalized key — the
// paper's scheme, where a block is "all pages retrieved for one name".
type ExactKey struct{}

// Candidates implements Scheme.
func (e ExactKey) Candidates(records []Record) []Pair {
	buckets := make(map[string][]int)
	for _, r := range records {
		for _, nk := range e.IndexKeys(r.Keys) {
			buckets[nk] = append(buckets[nk], r.ID)
		}
	}
	return pairsFromBuckets(buckets)
}

// IndexKeys implements KeyedScheme: the deduplicated non-empty normalized
// keys.
func (ExactKey) IndexKeys(keys []string) []string {
	out := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		nk := NormalizeKey(k)
		if nk == "" || seen[nk] {
			continue
		}
		seen[nk] = true
		out = append(out, nk)
	}
	return out
}

// TokenBlocking blocks records sharing any key token, a higher-recall
// scheme tolerant of name variations ("J. Smith" and "John Smith" share
// the token "smith").
type TokenBlocking struct {
	// MinTokenLength drops very short tokens (initials); default 2.
	MinTokenLength int
}

// Candidates implements Scheme.
func (t TokenBlocking) Candidates(records []Record) []Pair {
	buckets := make(map[string][]int)
	for _, r := range records {
		for _, tok := range t.IndexKeys(r.Keys) {
			buckets[tok] = append(buckets[tok], r.ID)
		}
	}
	return pairsFromBuckets(buckets)
}

// IndexKeys implements KeyedScheme: the deduplicated normalized key tokens
// at or above the minimum length.
func (t TokenBlocking) IndexKeys(keys []string) []string {
	minLen := t.MinTokenLength
	if minLen <= 0 {
		minLen = 2
	}
	var out []string
	seen := make(map[string]bool)
	for _, k := range keys {
		for _, tok := range KeyTokens(k, minLen) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// KeySimilarity scores two normalized blocking keys in [0, 1]; canopy
// clustering uses it as its cheap distance.
type KeySimilarity func(a, b string) float64

// Canopy implements canopy clustering (McCallum, Nigam, Ungar): pick an
// unprocessed seed, gather all records with cheap similarity >= Loose into
// its canopy, and remove those with similarity >= Tight from further
// seeding. Records sharing a canopy become candidates. Requires
// Tight >= Loose.
type Canopy struct {
	// Sim is the cheap similarity; nil means token Jaccard of the keys.
	Sim KeySimilarity
	// Loose and Tight are the two canopy thresholds.
	Loose, Tight float64
}

// Validate implements Validator. Similarities live in [0, 1], and the tight
// threshold must not undercut the loose one: Tight < Loose removes records
// from seeding that never even joined a canopy, silently shrinking the
// candidate set.
func (c Canopy) Validate() error {
	if c.Loose < 0 || c.Loose > 1 || c.Tight < 0 || c.Tight > 1 {
		return fmt.Errorf("blocking: canopy thresholds loose=%g tight=%g outside [0,1] (similarities live there)",
			c.Loose, c.Tight)
	}
	if c.Tight < c.Loose {
		return fmt.Errorf("blocking: canopy tight threshold %g below loose %g would drop records from seeding without clustering them",
			c.Tight, c.Loose)
	}
	return nil
}

// Candidates implements Scheme. Seeds are taken in record order, making the
// result deterministic.
func (c Canopy) Candidates(records []Record) []Pair {
	sim := c.Sim
	if sim == nil {
		sim = tokenJaccardKeys
	}
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = NormalizeKey(strings.Join(r.Keys, " "))
	}
	removed := make([]bool, len(records))
	set := make(map[Pair]struct{})
	for seed := range records {
		if removed[seed] {
			continue
		}
		removed[seed] = true
		canopy := []int{seed}
		for other := range records {
			if other == seed || removed[other] {
				continue
			}
			s := sim(keys[seed], keys[other])
			if s >= c.Loose {
				canopy = append(canopy, other)
				if s >= c.Tight {
					removed[other] = true
				}
			}
		}
		for i := 0; i < len(canopy); i++ {
			for j := i + 1; j < len(canopy); j++ {
				set[normalizePair(records[canopy[i]].ID, records[canopy[j]].ID)] = struct{}{}
			}
		}
	}
	return sortedPairs(set)
}

func tokenJaccardKeys(a, b string) float64 {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	sa := make(map[string]struct{}, len(ta))
	for _, t := range ta {
		sa[t] = struct{}{}
	}
	inter := 0
	sb := make(map[string]struct{}, len(tb))
	for _, t := range tb {
		if _, dup := sb[t]; dup {
			continue
		}
		sb[t] = struct{}{}
		if _, ok := sa[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// NormalizeKey canonicalizes one blocking key: lower-case, punctuation
// stripped to spaces, whitespace collapsed — so "Smith, John" and "john
// smith" normalize to comparable keys. It is exported because the
// incremental posting index (internal/blockindex) and any custom KeyFunc
// must normalize exactly the way the schemes do, or index-maintained
// blocks would drift from scheme-computed ones.
func NormalizeKey(k string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return ' '
		}
	}, k)
	return strings.Join(strings.Fields(mapped), " ")
}

// KeyTokens returns the normalized tokens of one blocking key at or above
// minLen, in order of appearance — the posting keys of token blocking,
// shared with the incremental index.
func KeyTokens(k string, minLen int) []string {
	fields := strings.Fields(NormalizeKey(k))
	out := fields[:0]
	for _, tok := range fields {
		if len(tok) >= minLen {
			out = append(out, tok)
		}
	}
	return out
}

func pairsFromBuckets(buckets map[string][]int) []Pair {
	set := make(map[Pair]struct{})
	for _, ids := range buckets {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if ids[i] != ids[j] {
					set[normalizePair(ids[i], ids[j])] = struct{}{}
				}
			}
		}
	}
	return sortedPairs(set)
}

func sortedPairs(set map[Pair]struct{}) []Pair {
	out := make([]Pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// The membership-fingerprint helpers below give blocks a stable identity
// across runs: hash each member's identifying parts with HashKey, combine
// the member hashes in block order with CombineIDs (or hash string keys
// directly with BlockID). Incremental resolution keys its per-block cache
// on the result — a block whose ID is unchanged since the previous run
// has identical members (up to 64-bit hash collision) and can reuse the
// previous run's prepared state and clustering. All three fold FNV-1a
// with a separator per part, so ("ab","c") and ("a","bc") fingerprint
// differently.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// foldString folds s plus a part separator into h.
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Part separator, folded like one extra byte.
	h ^= 0xFF
	h *= fnvPrime64
	return h
}

// HashKey fingerprints one record or document from its identifying parts.
func HashKey(parts ...string) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		h = foldString(h, p)
	}
	return h
}

// CombineIDs combines per-member hashes, in member order, into a block
// identity.
func CombineIDs(memberHashes []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, m := range memberHashes {
		for s := 0; s < 64; s += 8 {
			h ^= (m >> s) & 0xFF
			h *= fnvPrime64
		}
		h ^= 0xFF
		h *= fnvPrime64
	}
	return h
}

// DocHash fingerprints one ingested document from its identifying parts:
// collection name, position within the collection, URL, text and persona
// label. It is THE document identity of incremental resolution — the
// pipeline's membership diff and the blocking index must hash
// documents identically, or index-maintained block fingerprints would
// never match diff-computed ones and every block would look dirty.
// Positions are stable under append-only ingestion, which the store
// guarantees.
func DocHash(colName string, pos int, url, text string, persona int) uint64 {
	return HashKey(colName, strconv.Itoa(pos), url, text, strconv.Itoa(persona))
}
