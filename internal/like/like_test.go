package like

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
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
	alphabet := []rune("ab%_c")
	inputs := []rune("abcx%_")
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

// FuzzLikeMatch: on ASCII inputs, Match answers exactly as the
// pattern's ToRegexp translation, the reference SQL LIKE semantics also
// used by the Cypher baseline. Outside ASCII the two definitions part
// ('_' is one byte of the lowered subject, not one rune, and case
// folding follows strings.ToLower, not Unicode simple folding), so there,
// on arbitrary bytes, Match, which folds ASCII subjects in place and
// lowers only non-ASCII ones, must answer as it does for the subject
// lowered by strings.ToLower.
func FuzzLikeMatch(f *testing.F) {
	seeds := []struct{ pattern, s string }{
		{"%cmd.exe", `C:\Windows\System32\CMD.EXE`},
		{"c:\\win%", `C:\WINDOWS\notepad.exe`},
		{"%Stra\u00dfe%", "HAUPTSTRASSE 1"},       // ß has no one-byte lowercase
		{"%stra\u00dfe%", "Stra\u00dfe"},          // non-ASCII subject
		{"\u212a%", "kelvin"},                     // Kelvin sign lowers to ASCII 'k'
		{"%k", "\u212a"},                          // and so does a subject's
		{"%\u0130%", "\u0130stanbul"},             // dotted capital I lowers to two bytes
		{"_", "\u00c9"},                           // '_' is one byte of the lowered subject
		{"a_c%", "A\xffC\xfe"},                    // invalid UTF-8 subject
		{"\xff%", "\xffabc"},                      // invalid UTF-8 pattern
		{"%a_%b%", "XaYzBq"},                      // mixed '%' and '_'
		{"_%_%_", "ab"},                           // more '_' than bytes
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
	}
	for _, sd := range seeds {
		f.Add(sd.pattern, sd.s)
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := Compile(pattern).Match(s)
		if !isASCII(pattern) || !isASCII(s) {
			if want := Compile(pattern).Match(strings.ToLower(s)); got != want {
				t.Fatalf("Match(%q, %q) = %v, but %v for the lowered subject", pattern, s, got, want)
			}
			return
		}
		re, err := regexp.Compile(ToRegexp(pattern))
		if err != nil {
			t.Fatalf("ToRegexp(%q) does not compile: %v", pattern, err)
		}
		if want := re.MatchString(s); got != want {
			t.Fatalf("Match(%q, %q) = %v, regexp %s says %v", pattern, s, got, re, want)
		}
	})
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
