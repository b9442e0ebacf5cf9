package analysis

// PorterStem returns the Porter (1980) stem of an English word. The input is
// expected to be a lower-case token; words shorter than three letters are
// returned unchanged, following the original algorithm's convention. The
// implementation follows the published five-step algorithm exactly.
func PorterStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	// The algorithm is defined over a-z; tokens with other runes (digits,
	// accents) pass through unstemmed, which is what an English analyzer
	// should do with them anyway.
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	s := &stemmer{b: []byte(word)}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	// Most stems only drop a suffix: hand back that prefix of word instead
	// of a copy.
	if n := len(s.b); n <= len(word) && word[:n] == string(s.b) {
		return word[:n]
	}
	return string(s.b)
}

type stemmer struct {
	b []byte
}

// isConsonant reports whether the letter at index i behaves as a consonant:
// a, e, i, o, u are vowels; y is a consonant when word-initial or following
// a vowel, otherwise it acts as a vowel.
func (s *stemmer) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	}
	return true
}

// measure computes m in the [C](VC)^m[V] decomposition of b[:k].
func (s *stemmer) measure(k int) int {
	m := 0
	i := 0
	// Skip initial consonant run.
	for i < k && s.isConsonant(i) {
		i++
	}
	for {
		// Vowel run.
		for i < k && !s.isConsonant(i) {
			i++
		}
		if i >= k {
			return m
		}
		// Consonant run closes a VC pair.
		for i < k && s.isConsonant(i) {
			i++
		}
		m++
	}
}

// hasVowel reports whether b[:k] contains a vowel.
func (s *stemmer) hasVowel(k int) bool {
	for i := 0; i < k; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b[:k] ends in a doubled consonant.
func (s *stemmer) endsDoubleConsonant(k int) bool {
	if k < 2 {
		return false
	}
	return s.b[k-1] == s.b[k-2] && s.isConsonant(k-1)
}

// endsCVC reports whether b[:k] ends consonant-vowel-consonant where the
// final consonant is not w, x or y ("*o" in Porter's notation).
func (s *stemmer) endsCVC(k int) bool {
	if k < 3 {
		return false
	}
	if !s.isConsonant(k-3) || s.isConsonant(k-2) || !s.isConsonant(k-1) {
		return false
	}
	c := s.b[k-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix reports whether the current word ends with suf.
func (s *stemmer) hasSuffix(suf string) bool {
	if len(s.b) < len(suf) {
		return false
	}
	return string(s.b[len(s.b)-len(suf):]) == suf
}

// stemLen returns the length of the word with suf removed.
func (s *stemmer) stemLen(suf string) int { return len(s.b) - len(suf) }

// replace replaces the suffix suf (assumed present) with rep.
func (s *stemmer) replace(suf, rep string) {
	s.b = append(s.b[:len(s.b)-len(suf)], rep...)
}

// replaceIfM replaces suf with rep when the measure of the remaining stem
// exceeds minM; reports whether suf matched (regardless of replacement).
func (s *stemmer) replaceIfM(suf, rep string, minM int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	if s.measure(s.stemLen(suf)) > minM {
		s.replace(suf, rep)
	}
	return true
}

// step1a handles plurals: SSES→SS, IES→I, SS→SS, S→"".
func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.replace("sses", "ss")
	case s.hasSuffix("ies"):
		s.replace("ies", "i")
	case s.hasSuffix("ss"):
		// keep
	case s.hasSuffix("s"):
		s.replace("s", "")
	}
}

// step1b handles past participles and gerunds: EED, ED, ING.
func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(s.stemLen("eed")) > 0 {
			s.replace("eed", "ee")
		}
		return
	}
	fired := false
	if s.hasSuffix("ed") && s.hasVowel(s.stemLen("ed")) {
		s.replace("ed", "")
		fired = true
	} else if s.hasSuffix("ing") && s.hasVowel(s.stemLen("ing")) {
		s.replace("ing", "")
		fired = true
	}
	if !fired {
		return
	}
	switch {
	case s.hasSuffix("at"):
		s.replace("at", "ate")
	case s.hasSuffix("bl"):
		s.replace("bl", "ble")
	case s.hasSuffix("iz"):
		s.replace("iz", "ize")
	case s.endsDoubleConsonant(len(s.b)):
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.endsCVC(len(s.b)):
		s.b = append(s.b, 'e')
	}
}

// step1c turns terminal Y to I when the stem contains a vowel.
func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(s.stemLen("y")) {
		s.b[len(s.b)-1] = 'i'
	}
}

// step2 maps double suffixes to single ones when m > 0.
func (s *stemmer) step2() {
	if len(s.b) < 3 {
		return
	}
	// Dispatch on the penultimate letter, per Porter's original program.
	switch s.b[len(s.b)-2] {
	case 'a':
		if s.replaceIfM("ational", "ate", 0) {
			return
		}
		s.replaceIfM("tional", "tion", 0)
	case 'c':
		if s.replaceIfM("enci", "ence", 0) {
			return
		}
		s.replaceIfM("anci", "ance", 0)
	case 'e':
		s.replaceIfM("izer", "ize", 0)
	case 'l':
		if s.replaceIfM("abli", "able", 0) {
			return
		}
		if s.replaceIfM("alli", "al", 0) {
			return
		}
		if s.replaceIfM("entli", "ent", 0) {
			return
		}
		if s.replaceIfM("eli", "e", 0) {
			return
		}
		s.replaceIfM("ousli", "ous", 0)
	case 'o':
		if s.replaceIfM("ization", "ize", 0) {
			return
		}
		if s.replaceIfM("ation", "ate", 0) {
			return
		}
		s.replaceIfM("ator", "ate", 0)
	case 's':
		if s.replaceIfM("alism", "al", 0) {
			return
		}
		if s.replaceIfM("iveness", "ive", 0) {
			return
		}
		if s.replaceIfM("fulness", "ful", 0) {
			return
		}
		s.replaceIfM("ousness", "ous", 0)
	case 't':
		if s.replaceIfM("aliti", "al", 0) {
			return
		}
		if s.replaceIfM("iviti", "ive", 0) {
			return
		}
		s.replaceIfM("biliti", "ble", 0)
	}
}

// step3 deals with -ic-, -full, -ness etc. when m > 0.
func (s *stemmer) step3() {
	if len(s.b) < 3 {
		return
	}
	switch s.b[len(s.b)-1] {
	case 'e':
		if s.replaceIfM("icate", "ic", 0) {
			return
		}
		if s.replaceIfM("ative", "", 0) {
			return
		}
		s.replaceIfM("alize", "al", 0)
	case 'i':
		s.replaceIfM("iciti", "ic", 0)
	case 'l':
		if s.replaceIfM("ical", "ic", 0) {
			return
		}
		s.replaceIfM("ful", "", 0)
	case 's':
		s.replaceIfM("ness", "", 0)
	}
}

// step4 removes suffixes when m > 1.
func (s *stemmer) step4() {
	if len(s.b) < 3 {
		return
	}
	switch s.b[len(s.b)-2] {
	case 'a':
		s.replaceIfM("al", "", 1)
	case 'c':
		if s.replaceIfM("ance", "", 1) {
			return
		}
		s.replaceIfM("ence", "", 1)
	case 'e':
		s.replaceIfM("er", "", 1)
	case 'i':
		s.replaceIfM("ic", "", 1)
	case 'l':
		if s.replaceIfM("able", "", 1) {
			return
		}
		s.replaceIfM("ible", "", 1)
	case 'n':
		if s.replaceIfM("ant", "", 1) {
			return
		}
		if s.replaceIfM("ement", "", 1) {
			return
		}
		if s.replaceIfM("ment", "", 1) {
			return
		}
		s.replaceIfM("ent", "", 1)
	case 'o':
		if s.hasSuffix("ion") {
			k := s.stemLen("ion")
			if k > 0 && (s.b[k-1] == 's' || s.b[k-1] == 't') && s.measure(k) > 1 {
				s.replace("ion", "")
			}
			return
		}
		s.replaceIfM("ou", "", 1)
	case 's':
		s.replaceIfM("ism", "", 1)
	case 't':
		if s.replaceIfM("ate", "", 1) {
			return
		}
		s.replaceIfM("iti", "", 1)
	case 'u':
		s.replaceIfM("ous", "", 1)
	case 'v':
		s.replaceIfM("ive", "", 1)
	case 'z':
		s.replaceIfM("ize", "", 1)
	}
}

// step5a removes a terminal E when m > 1, or when m == 1 and the stem does
// not end in CVC.
func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	k := len(s.b) - 1
	m := s.measure(k)
	if m > 1 || (m == 1 && !s.endsCVC(k)) {
		s.b = s.b[:k]
	}
}

// step5b reduces a terminal double L when m > 1.
func (s *stemmer) step5b() {
	if s.measure(len(s.b)) > 1 && s.endsDoubleConsonant(len(s.b)) && s.b[len(s.b)-1] == 'l' {
		s.b = s.b[:len(s.b)-1]
	}
}
