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

func TestExact(t *testing.T) {
	if !Compile("plain").Exact() {
		t.Error("plain string should be exact")
	}
	for _, p := range []string{"a%", "_a", "%"} {
		if Compile(p).Exact() {
			t.Errorf("%q should not be exact", p)
		}
	}
	if got := Compile("MiXeD").ExactValue(); got != "mixed" {
		t.Errorf("ExactValue = %q, want %q", got, "mixed")
	}
}

// TestMatchAgainstRegexp cross-checks the matcher against the reference
// regular-expression translation on random patterns and inputs.
func TestMatchAgainstRegexp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab%_c")
	inputs := []rune("abcx")
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

// refMatch is the reference matcher Match must agree with byte for
// byte: both sides lowered with strings.ToLower, then matchGeneral for
// patterns with '_' and the literal-segment walk for the rest.
func refMatch(pattern, s string) bool {
	p := Compile(pattern)
	ls := strings.ToLower(s)
	if p.hasUnder {
		return matchGeneral(strings.ToLower(pattern), ls)
	}
	if p.exact {
		return ls == p.segments[0]
	}
	rest := ls
	for i, seg := range p.segments {
		if i == 0 && !p.leading {
			if !strings.HasPrefix(rest, seg) {
				return false
			}
			rest = rest[len(seg):]
			continue
		}
		if i == len(p.segments)-1 && !p.trailing {
			return strings.HasSuffix(rest, seg)
		}
		j := strings.Index(rest, seg)
		if j < 0 {
			return false
		}
		rest = rest[j+len(seg):]
	}
	return true
}

// matchGeneral is the backtracking matcher over pre-lowered strings
// that refMatch uses for patterns with '_'.
func matchGeneral(pat, s string) bool {
	var (
		pi, si     int
		starPi     = -1
		starSi     int
		plen, slen = len(pat), len(s)
	)
	for si < slen {
		switch {
		case pi < plen && (pat[pi] == '_' || pat[pi] == s[si]):
			pi++
			si++
		case pi < plen && pat[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			pi = starPi + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < plen && pat[pi] == '%' {
		pi++
	}
	return pi == plen
}

// FuzzLikeMatch: Match, which folds ASCII subjects in place and lowers
// only non-ASCII ones, answers exactly as the reference that lowers
// both sides with strings.ToLower, on arbitrary bytes.
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
	}
	for _, sd := range seeds {
		f.Add(sd.pattern, sd.s)
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if got, want := Compile(pattern).Match(s), refMatch(pattern, s); got != want {
			t.Fatalf("Match(%q, %q) = %v, reference says %v", pattern, s, got, want)
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
