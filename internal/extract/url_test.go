package extract

import (
	"testing"
	"testing/quick"
)

func TestParseURL(t *testing.T) {
	cases := []struct {
		raw        string
		host       string
		domain     string
		pathTokens int
	}{
		{"http://cs.stanford.edu/~jsmith/index.html", "cs.stanford.edu", "stanford.edu", 3},
		{"https://www.ox.ac.uk/people/smith", "www.ox.ac.uk", "ox.ac.uk", 2},
		{"http://example.com", "example.com", "example.com", 0},
		{"example.com/page", "example.com", "example.com", 1},
		{"http://host.com:8080/a?q=1", "host.com", "host.com", 1},
		{"http://user@host.com/a#frag", "host.com", "host.com", 1},
		{"", "", "", 0},
		// The authority ends at the first of '/', '?' and '#'.
		{"http://example.com?x=1", "example.com", "example.com", 0},
		{"http://cs.example.edu#top", "cs.example.edu", "example.edu", 0},
		{"http://host.com?mail=a@b.com", "host.com", "host.com", 0},
		{"http://host.com:8080?q=a/b", "host.com", "host.com", 0},
		{"http://user@host.com#a@b/c", "host.com", "host.com", 0},
	}
	for _, tc := range cases {
		f := ParseURL(tc.raw)
		if f.Host != tc.host {
			t.Errorf("ParseURL(%q).Host = %q, want %q", tc.raw, f.Host, tc.host)
		}
		if f.Domain != tc.domain {
			t.Errorf("ParseURL(%q).Domain = %q, want %q", tc.raw, f.Domain, tc.domain)
		}
		if len(f.PathTokens) != tc.pathTokens {
			t.Errorf("ParseURL(%q).PathTokens = %v, want %d tokens", tc.raw, f.PathTokens, tc.pathTokens)
		}
	}
}

func TestURLSimilarityBands(t *testing.T) {
	sameHostA := ParseURL("http://cs.stanford.edu/~jsmith/pubs.html")
	sameHostB := ParseURL("http://cs.stanford.edu/~jsmith/cv.html")
	sameDomain := ParseURL("http://ai.stanford.edu/people")
	otherA := ParseURL("http://recipes-blog.com/cake")

	sHost := URLSimilarity(sameHostA, sameHostB)
	sDomain := URLSimilarity(sameHostA, sameDomain)
	sOther := URLSimilarity(sameHostA, otherA)

	if !(sHost > sDomain && sDomain > sOther) {
		t.Errorf("band ordering violated: host=%v domain=%v other=%v", sHost, sDomain, sOther)
	}
	if sHost < 0.9 {
		t.Errorf("same host = %v, want >= 0.9", sHost)
	}
	if sDomain != 0.8 {
		t.Errorf("same domain = %v, want 0.8", sDomain)
	}
	if sOther > 0.6 {
		t.Errorf("different domain = %v, want <= 0.6", sOther)
	}
}

func TestURLSimilarityIdentical(t *testing.T) {
	u := ParseURL("http://a.b.com/x/y")
	if got := URLSimilarity(u, u); got != 1 {
		t.Errorf("identical URL = %v, want 1", got)
	}
}

func TestURLSimilarityEmpty(t *testing.T) {
	u := ParseURL("http://a.com")
	e := ParseURL("")
	if got := URLSimilarity(u, e); got != 0 {
		t.Errorf("empty URL = %v, want 0", got)
	}
	if got := URLSimilarity(e, e); got != 0 {
		t.Errorf("both empty = %v, want 0", got)
	}
}

func TestURLSimilarityBoundsAndSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		fa, fb := ParseURL(a), ParseURL(b)
		s := URLSimilarity(fa, fb)
		if s < 0 || s > 1 {
			return false
		}
		return s == URLSimilarity(fb, fa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseURLNeverPanicsProperty(t *testing.T) {
	f := func(raw string) bool {
		_ = ParseURL(raw)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
