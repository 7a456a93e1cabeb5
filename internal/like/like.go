// Package like implements SQL-LIKE-style pattern matching as used by AIQL
// attribute filters: '%' matches any (possibly empty) substring and '_'
// matches exactly one character (rune). Matching is case-insensitive
// under Unicode simple case folding, as in SQL and in regexp's (?i),
// which mirrors how security analysts filter executable and file names
// collected from mixed Windows/Linux fleets. A byte that is not valid
// UTF-8 is one character, U+FFFD, on either side.
package like

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Pattern is a compiled LIKE pattern.
type Pattern struct {
	raw   string
	ascii bool // raw is all ASCII: the byte-folding fast path applies

	// The ASCII fast path's form of the pattern (set only when ascii).
	lower    string   // raw lowercased once, at compile time
	segments []string // literal segments between '%' wildcards, lowercased
	leading  bool     // pattern starts with '%'
	trailing bool     // pattern ends with '%'
	exact    bool     // no wildcards at all: exact match
	hasUnder bool     // pattern contains '_'
}

// Compile parses a LIKE pattern. Compile never fails: every string is a
// valid pattern; strings without wildcards require an exact match.
func Compile(raw string) *Pattern {
	p := &Pattern{raw: raw, ascii: isASCII(raw)}
	if !p.ascii {
		return p
	}
	lower := strings.ToLower(raw)
	p.lower = lower
	p.hasUnder = strings.ContainsRune(lower, '_')
	if !strings.ContainsRune(lower, '%') && !p.hasUnder {
		p.exact = true
		p.segments = []string{lower}
		return p
	}
	p.leading = strings.HasPrefix(lower, "%")
	p.trailing = strings.HasSuffix(lower, "%")
	for _, seg := range strings.Split(lower, "%") {
		if seg != "" {
			p.segments = append(p.segments, seg)
		}
	}
	return p
}

// Raw returns the original pattern text.
func (p *Pattern) Raw() string { return p.raw }

// Prefix returns the lowercased literal prefix every matching subject
// starts with under an ASCII case-insensitive comparison, for index
// range scans: "C:\Win%" has prefix "c:\win". It ends before the first
// wildcard and before the first character that a differently spelled one
// folds to ('k' and the Kelvin sign, 'é' and 'É'), so a range built from
// it never excludes a subject Match accepts.
func (p *Pattern) Prefix() string {
	for i, r := range p.raw {
		if r == '%' || r == '_' || !prefixSafe(r) {
			return strings.ToLower(p.raw[:i])
		}
	}
	return strings.ToLower(p.raw)
}

// prefixSafe reports whether every character that folds to r is spelled
// with r's bytes up to ASCII case. U+FFFD is not: it stands for any
// invalid byte.
func prefixSafe(r rune) bool {
	if r == utf8.RuneError {
		return false
	}
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f >= utf8.RuneSelf || r >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Match reports whether s matches the pattern, case-insensitively. An
// ASCII subject of an ASCII pattern is folded byte by byte as it is
// compared; any other pair is compared rune by rune under Unicode simple
// folding. Neither allocates.
func (p *Pattern) Match(s string) bool {
	if !p.ascii || !isASCII(s) {
		return matchRunes(p.raw, s)
	}
	if p.hasUnder {
		return matchFold(p.lower, s)
	}
	if p.exact {
		return len(s) == len(p.segments[0]) && hasPrefixFold(s, p.segments[0])
	}
	if len(p.segments) == 0 {
		// pattern was all '%'
		return true
	}
	rest := s
	for i, seg := range p.segments {
		if i == 0 && !p.leading {
			if !hasPrefixFold(rest, seg) {
				return false
			}
			rest = rest[len(seg):]
			continue
		}
		if i == len(p.segments)-1 && !p.trailing {
			return len(rest) >= len(seg) && hasPrefixFold(rest[len(rest)-len(seg):], seg)
		}
		j := indexFold(rest, seg)
		if j < 0 {
			return false
		}
		rest = rest[j+len(seg):]
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// fold lowercases one ASCII letter; every other byte is returned as is.
func fold(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// hasPrefixFold reports whether the folded s starts with lower.
func hasPrefixFold(s, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		if fold(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

// indexFold returns the index of the first occurrence of lower in the
// folded s, or -1.
func indexFold(s, lower string) int {
	for i := 0; i+len(lower) <= len(s); i++ {
		if hasPrefixFold(s[i:], lower) {
			return i
		}
	}
	return -1
}

// matchFold is the full backtracking matcher handling both '%' and '_'
// against the folded s. pat must already be lowercased.
func matchFold(pat, s string) bool {
	// iterative two-pointer algorithm with single backtrack point,
	// the classic wildcard matcher. A pattern '%' is always a wildcard,
	// even facing a '%' in s, so it is tried before a literal match:
	// consumed as a literal, it would set no backtrack point.
	var (
		pi, si     int
		starPi     = -1
		starSi     int
		plen, slen = len(pat), len(s)
	)
	for si < slen {
		switch {
		case pi < plen && pat[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case pi < plen && (pat[pi] == '_' || pat[pi] == fold(s[si])):
			pi++
			si++
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

// foldRune maps r to one representative of its Unicode simple case-folding
// orbit (the smallest rune in it), so two runes are equal under folding
// exactly when their representatives are: 'k', 'K' and the Kelvin sign
// share one, and so do 'σ', 'ς' and 'Σ'.
func foldRune(r rune) rune {
	min := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f < min {
			min = f
		}
	}
	return min
}

// matchRunes is matchFold over runes: both strings are decoded as they
// are compared, runes are equal when they fold alike, and '_' consumes
// one rune of s.
func matchRunes(pat, s string) bool {
	var (
		pi, si int
		starPi = -1
		starSi int
	)
	for si < len(s) {
		r, n := utf8.DecodeRuneInString(s[si:])
		var pr rune
		pn := 0
		if pi < len(pat) {
			pr, pn = utf8.DecodeRuneInString(pat[pi:])
		}
		switch {
		case pn > 0 && pr == '%':
			starPi = pi
			starSi = si
			pi++
		case pn > 0 && (pr == '_' || pr == r || foldRune(pr) == foldRune(r)):
			pi += pn
			si += n
		case starPi >= 0:
			pi = starPi + 1
			_, n = utf8.DecodeRuneInString(s[starSi:])
			starSi += n
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Match is a convenience for one-shot matching.
func Match(pattern, s string) bool { return Compile(pattern).Match(s) }

// ToRegexp converts a LIKE pattern into an equivalent (case-insensitive)
// regular expression source string. Used by tests to cross-check the
// matcher and by the Cypher translator ('=~' operator). The s flag lets
// '%' and '_' match a newline, as they do in Match and in SQL LIKE.
func ToRegexp(pattern string) string {
	var b strings.Builder
	b.WriteString("(?is)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		case '.', '+', '*', '?', '(', ')', '[', ']', '{', '}', '^', '$', '|', '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteString("$")
	return b.String()
}
