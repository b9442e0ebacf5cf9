package analysis

// englishStopwords is the classic Lucene/Snowball English stopword list with
// a few web-specific additions (http, www, com) that carry no topical signal
// on web pages.
var englishStopwords = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by",
		"for", "if", "in", "into", "is", "it",
		"no", "not", "of", "on", "or", "such",
		"that", "the", "their", "then", "there", "these",
		"they", "this", "to", "was", "will", "with",
		"he", "she", "his", "her", "him", "hers", "its", "i", "we", "you",
		"our", "us", "your", "yours", "me", "my", "mine", "them", "those",
		"from", "have", "has", "had", "do", "does", "did", "were", "been",
		"being", "am", "can", "could", "would", "should", "may", "might",
		"must", "shall", "about", "after", "all", "also", "any", "because",
		"before", "between", "both", "during", "each", "few", "more", "most",
		"other", "some", "than", "too", "very", "what", "when", "where",
		"which", "while", "who", "whom", "why", "how", "here", "just",
		"now", "only", "over", "own", "same", "so", "under", "until", "up",
		"down", "out", "off", "again", "further", "once",
		"http", "https", "www", "com", "org", "net", "html", "htm", "page",
	} {
		englishStopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the (already lower-cased) token is an English
// stopword.
func IsStopword(token string) bool {
	_, ok := englishStopwords[token]
	return ok
}
