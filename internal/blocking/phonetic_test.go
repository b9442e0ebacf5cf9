package blocking

import "testing"

func TestSoundex(t *testing.T) {
	cases := map[string]string{
		"robert":   "r163",
		"Rupert":   "r163", // same code as robert — the classic pair
		"ashcraft": "a261", // h transparent: s and c stay one run
		"ashcroft": "a261",
		"tymczak":  "t522", // vowel breaks the cz run
		"pfister":  "p236",
		"honeyman": "h555",
		"jackson":  "j250",
		"wilson":   "w425",
		"lee":      "l000", // zero padding
		"o'brien":  "o165", // punctuation skipped
		"1234":     "",     // no letters, no code
		"":         "",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSoundexKey(t *testing.T) {
	if a, b := SoundexKey("Jon Smyth"), SoundexKey("john smith"); a != b || a == "" {
		t.Errorf("SoundexKey: %q vs %q, want equal phonetic keys", a, b)
	}
	if got := SoundexKey("  Mary-Jones 42 "); got != "m600 j520" {
		t.Errorf("SoundexKey(mary-jones 42) = %q", got)
	}
	if got := SoundexKey("123 456"); got != "" {
		t.Errorf("SoundexKey of letterless key = %q, want empty", got)
	}
}

func TestApproxPolicies(t *testing.T) {
	if p := (Canopy{Loose: 0.3, Tight: 0.6}).ApproxPolicy(); p.MinSim != 0.3 {
		t.Errorf("canopy policy %+v", p)
	}
}
