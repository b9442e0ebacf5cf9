package extract

import (
	"strings"

	"repro/internal/textsim"
)

// URLFeatures are the components of a page URL relevant to similarity
// function F2: two pages hosted on the same web domain (a personal home
// page and its subpages, a lab site, ...) are likely about the same person.
type URLFeatures struct {
	// Raw is the original URL string.
	Raw string
	// Host is the full host name (e.g. "cs.stanford.edu").
	Host string
	// Domain is the registrable domain approximation: the last two labels,
	// or three when the TLD is a two-part country suffix like "ac.uk".
	Domain string
	// PathTokens are the lower-cased path segments split on separators.
	PathTokens []string
}

// twoPartTLDs lists common two-label public suffixes so that
// "www.ox.ac.uk" yields domain "ox.ac.uk" rather than "ac.uk".
var twoPartTLDs = map[string]struct{}{
	"ac.uk": {}, "co.uk": {}, "gov.uk": {}, "org.uk": {},
	"com.au": {}, "edu.au": {}, "co.jp": {}, "ac.jp": {},
	"com.br": {}, "co.in": {}, "ac.in": {}, "edu.cn": {},
	"uni-trier.de": {},
}

// ParseURL extracts URL features without the net/url dependency's scheme
// strictness; web-crawl URLs are frequently malformed, so parsing is
// forgiving: missing schemes are tolerated and errors never occur.
func ParseURL(raw string) URLFeatures {
	f := URLFeatures{Raw: raw}
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	// The authority ends at the first of '/', '?' and '#'; user info and the
	// port are looked for inside it only.
	host, rest := s, ""
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		host, rest = s[:i], s[i:]
	}
	if i := strings.IndexByte(host, '@'); i >= 0 {
		host = host[i+1:]
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	f.Host = host
	f.Domain = registrableDomain(host)
	// The path is what follows, up to the query or fragment.
	path := rest
	if i := strings.IndexAny(path, "?#"); i >= 0 {
		path = path[:i]
	}
	for _, seg := range strings.FieldsFunc(path, func(r rune) bool {
		return r == '/' || r == '.' || r == '-' || r == '_' || r == '~'
	}) {
		f.PathTokens = append(f.PathTokens, strings.ToLower(seg))
	}
	return f
}

func registrableDomain(host string) string {
	labels := strings.Split(host, ".")
	if len(labels) <= 2 {
		return host
	}
	lastTwo := strings.Join(labels[len(labels)-2:], ".")
	if _, ok := twoPartTLDs[lastTwo]; ok && len(labels) >= 3 {
		return strings.Join(labels[len(labels)-3:], ".")
	}
	return lastTwo
}

// URLSimilarity compares two URLs for similarity function F2. Same host
// scores highest, same registrable domain scores high, and otherwise the
// score falls back to a scaled string similarity of the hosts, so that
// near-identical mirror hosts retain some signal.
func URLSimilarity(a, b URLFeatures) float64 {
	if a.Host == "" || b.Host == "" {
		return 0
	}
	if a.Host == b.Host {
		// Shared path prefixes push same-host scores towards 1.
		return 0.9 + 0.1*pathOverlap(a.PathTokens, b.PathTokens)
	}
	if a.Domain != "" && a.Domain == b.Domain {
		return 0.8
	}
	// Different domains: damped character similarity of hosts. The cap at
	// 0.6 keeps unrelated-but-lexically-close hosts below the same-domain
	// band.
	return 0.6 * textsim.JaroWinkler(a.Host, b.Host)
}

func pathOverlap(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return textsim.SetJaccard(a, b)
}
