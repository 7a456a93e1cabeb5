package like

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"%cmd.exe", `C:\Windows\System32\cmd.exe`, true},
		{"%cmd.exe", "cmd.exe", true},
		{"%cmd.exe", "cmd.exe.bak", false},
		{"cmd.exe", "cmd.exe", true},
		{"cmd.exe", "CMD.EXE", true}, // case-insensitive
		{"cmd.exe", "xcmd.exe", false},
		{"%backup1.dmp", `C:\data\backup1.dmp`, true},
		{"%info_stealer%", "/var/www/info_stealer.sh", true},
		{"/var/www/%", "/var/www/html/index.php", true},
		{"/var/www/%", "/etc/passwd", false},
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a%b%c", "abc", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"a_c", "abbc", false},
		{"_", "x", true},
		{"_", "", false},
		{"%.129", "203.0.113.129", true},
		{"%.129", "203.0.113.128", false},
		{"ab%", "ab", true},
		{"ab%", "a", false},
		{"%%", "x", true},
		{"a%%b", "ab", true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.input); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestUnderscoreWithPercent(t *testing.T) {
	cases := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"a_%", "ab", true},
		{"a_%", "a", false},
		{"a_%", "abcdef", true},
		{"%_design.cad", `C:\Projects\eng\pcb_design.cad`, true},
		{"_%_", "ab", true},
		{"_%_", "a", false},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.input); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestPrefix(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
	}{
		{"abc", "abc"},
		{"abc%", "abc"},
		{"%abc", ""},
		{"ab_c%", "ab"},
		{"a%b", "a"},
		{"%", ""},
		{`C:\Win%`, `c:\win`},
		{"desk%", "de"},             // 'k' folds with the Kelvin sign
		{"ls -la%", "l"},            // 's' with the long s
		{"\u00e9t\u00e9", ""},       // é with É
		{"ab\u20acc%", "ab\u20acc"}, // € folds with nothing
	}
	for _, c := range cases {
		if got := Compile(c.pattern).Prefix(); got != c.want {
			t.Errorf("Prefix(%q) = %q, want %q", c.pattern, got, c.want)
		}
	}
}

// TestExact: a pattern without wildcards demands the whole (folded)
// subject and is its own prefix; any wildcard ends the exact form.
func TestExact(t *testing.T) {
	p := Compile("MiXeD")
	if !p.Match("mixed") || !p.Match("MIXED") || p.Match("mixed2") || p.Match("mixe") {
		t.Error("a plain pattern must match exactly the folded subject")
	}
	if got := p.Prefix(); got != "mixed" {
		t.Errorf("Prefix = %q, want %q", got, "mixed")
	}
	for _, w := range []string{"a%", "_a", "%"} {
		if Compile(w).Match(w+"x") != strings.HasSuffix(w, "%") {
			t.Errorf("%q should act as a wildcard pattern", w)
		}
	}
}

// TestMatchAgainstRegexp cross-checks the matcher against the reference
// regular-expression translation on random patterns and inputs.
func TestMatchAgainstRegexp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab%_ck\u00e9\u03c3")
	inputs := []rune("abcx%_K\u00c9\u03c2\u212a")
	gen := func(letters []rune, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(letters[rng.Intn(len(letters))])
		}
		return b.String()
	}
	for i := 0; i < 3000; i++ {
		pattern := gen(alphabet, rng.Intn(7))
		input := gen(inputs, rng.Intn(9))
		re := regexp.MustCompile(ToRegexp(pattern))
		want := re.MatchString(input)
		if got := Match(pattern, input); got != want {
			t.Fatalf("Match(%q, %q) = %v, regexp says %v", pattern, input, got, want)
		}
	}
}

// TestExactMatchesSelf: any string without wildcards matches itself.
func TestExactMatchesSelf(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return Match(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentWrappedMatchesContaining: %s% matches any superstring of s.
func TestPercentWrappedMatchesContaining(t *testing.T) {
	f := func(prefix, s, suffix string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return Match("%"+s+"%", prefix+s+suffix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToRegexpEscapesMeta(t *testing.T) {
	// the dot in cmd.exe must not match "cmdxexe"
	re := regexp.MustCompile(ToRegexp("%cmd.exe"))
	if re.MatchString("cmdxexe") {
		t.Error("unescaped '.' in regexp translation")
	}
	if !re.MatchString("CMD.EXE") {
		t.Error("regexp translation should be case-insensitive")
	}
}

// FuzzLikeMatch: on valid UTF-8, Match answers exactly as the pattern's
// ToRegexp translation, the reference SQL LIKE semantics also used by
// the Cypher baseline: '_' is one rune and case folds as regexp's (?i)
// folds it. A byte that is not valid UTF-8 is one U+FFFD on either side,
// so any other input answers as it does with each such byte replaced.
// Whatever Match accepts also starts with the pattern's Prefix under
// the ASCII case-insensitive order the relational range scan uses.
func FuzzLikeMatch(f *testing.F) {
	seeds := []struct{ pattern, s string }{
		{"%cmd.exe", `C:\Windows\System32\CMD.EXE`},
		{"c:\\win%", `C:\WINDOWS\notepad.exe`},
		{"%Stra\u00dfe%", "HAUPTSTRASSE 1"},       // ß folds to no ASCII pair
		{"%stra\u00dfe%", "Stra\u00dfe"},          // non-ASCII subject
		{"\u212a%", "kelvin"},                     // the Kelvin sign folds with 'k'
		{"%k", "\u212a"},                          // and so does a subject's
		{"%\u0130%", "\u0130stanbul"},             // dotted capital I folds with nothing
		{"_", "\u00c9"},                           // '_' is one rune of the subject
		{"a_c%", "A\xffC\xfe"},                    // invalid UTF-8 subject
		{"\xff%", "\xffabc"},                      // invalid UTF-8 pattern
		{"%a_%b%", "XaYzBq"},                      // mixed '%' and '_'
		{"_%_%_", "ab"},                           // more '_' than runes
		{"%%__%%", "AbC"},                         // doubled wildcards
		{"%b_", "%ABC"},                           // '%' in the subject
		{"", ""},                                  // empty pattern
		{"MiXeD", "mixed"},                        // exact, folded pattern
		{"%.129", "203.0.113.129"},                // suffix
		{"ab%", "AB"},                             // prefix
		{"%__%", "\u00e9\u00e8"},                  // non-ASCII under '_'
		{"%\u00e9%", "\u00c9COLE"},                // case pair outside ASCII
		{"a%b%c", "AXXBYYC"},                      // inner segments
		{"%Win%Sys%", "c:\\windows\\system32\\x"}, // uppercase pattern
		{"a%_", "a%"},                             // a '%' facing a subject '%' is a wildcard
		{"%b_", "%abc"},                           // and may match more than that '%'
		{"a%_", "A\nB\n"},                         // wildcards span newlines
		{"\u03c3", "\u03c2"},                      // σ and ς fold together
		{"s%", "\u017ftop"},                       // and 's' with the long s
	}
	for _, sd := range seeds {
		f.Add(sd.pattern, sd.s)
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := Compile(pattern).Match(s)
		if !utf8.ValidString(pattern) || !utf8.ValidString(s) {
			if want := Compile(perByteFFFD(pattern)).Match(perByteFFFD(s)); got != want {
				t.Fatalf("Match(%q, %q) = %v, but %v with invalid bytes as U+FFFD", pattern, s, got, want)
			}
		} else {
			re, err := regexp.Compile(ToRegexp(pattern))
			if err != nil {
				t.Fatalf("ToRegexp(%q) does not compile: %v", pattern, err)
			}
			if want := re.MatchString(s); got != want {
				t.Fatalf("Match(%q, %q) = %v, regexp %s says %v", pattern, s, got, re, want)
			}
		}
		if prefix := Compile(pattern).Prefix(); got && !hasPrefixFold(s, prefix) {
			t.Fatalf("Match(%q, %q) is true, but the subject does not start with Prefix %q", pattern, s, prefix)
		}
	})
}

// perByteFFFD replaces each byte of s that is not valid UTF-8 with
// U+FFFD, one for one.
func perByteFFFD(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(r)
	}
	return b.String()
}

// TestMatchUnicode: '_' consumes one rune however many bytes spell it,
// and case folds under Unicode simple folding, with the prefix cut
// before any character a differently spelled one folds to.
func TestMatchUnicode(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"_", "\u00c9", true},      // É is two bytes, one rune
		{"__", "\u00c9", false},    // and not two
		{"\u03c3", "\u03c2", true}, // σ and final ς
		{"\u03c3", "\u03a3", true}, // σ and Σ
		{"\u00e9cole", "\u00c9COLE", true},
		{"k%", "\u212aelvin", true}, // Kelvin sign
		{"\u212a", "K", true},
		{"s", "\u017f", true},           // long s
		{"%\u0130%", "istanbul", false}, // İ folds with nothing
		{"i", "\u0131", false},          // nor does dotless ı
		{"a_c", "a\u20acc", true},       // '_' over a three-byte rune
		{"%\u00df", "STRASSE", false},   // ß is not 'ss' under simple folding
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.s); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
		if want := regexp.MustCompile(ToRegexp(c.pattern)).MatchString(c.s); c.want != want {
			t.Errorf("table says Match(%q, %q) = %v, regexp says %v", c.pattern, c.s, c.want, want)
		}
	}
}

// TestMatchASCIIAllocatesNothing: matching a mixed-case ASCII subject
// folds it in place, on every path (exact, prefix, suffix, inner
// segment, '_').
func TestMatchASCIIAllocatesNothing(t *testing.T) {
	const subject = `C:\Windows\System32\WindowsPowerShell\PowerShell.EXE`
	for _, pattern := range []string{
		`c:\windows\system32\windowspowershell\powershell.exe`,
		`C:\Windows\%`,
		`%powershell.exe`,
		`%\System32\%.exe`,
		`c:\_indows\%shell.e_e`,
		`%`,
	} {
		p := Compile(pattern)
		if !p.Match(subject) {
			t.Fatalf("%q does not match %q", pattern, subject)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Match(subject) }); allocs != 0 {
			t.Errorf("Match(%q) allocates %v times per call, want 0", pattern, allocs)
		}
	}
}
