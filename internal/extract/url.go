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
	f.PathTokens = pathTokens(path)
	return f
}

// isPathSeparator reports whether c splits a URL path into tokens.
func isPathSeparator(c byte) bool {
	return c == '/' || c == '.' || c == '-' || c == '_' || c == '~'
}

// pathTokens returns the lower-cased runs of path between separators, nil
// when there are none. The separators are ASCII, so no byte of a
// multi-byte rune is one, and splitting bytes splits the runes: it is
// strings.FieldsFunc over the separators, in one allocation.
func pathTokens(path string) []string {
	n := 0
	for i := 0; i < len(path); i++ {
		if !isPathSeparator(path[i]) && (i == 0 || isPathSeparator(path[i-1])) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < len(path); {
		for i < len(path) && isPathSeparator(path[i]) {
			i++
		}
		start := i
		for i < len(path) && !isPathSeparator(path[i]) {
			i++
		}
		if i > start {
			out = append(out, strings.ToLower(path[start:i]))
		}
	}
	return out
}

// registrableDomain is the host from the start of its second-to-last label,
// or of its third-to-last when the last two are a two-part suffix; a host
// of at most two labels is its own domain.
func registrableDomain(host string) string {
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	second := strings.LastIndexByte(host[:last], '.')
	if second < 0 {
		return host
	}
	if _, ok := twoPartTLDs[host[second+1:]]; ok {
		return host[strings.LastIndexByte(host[:second], '.')+1:]
	}
	return host[second+1:]
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
