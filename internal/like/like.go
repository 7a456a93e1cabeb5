// Package like implements SQL-LIKE-style pattern matching as used by AIQL
// attribute filters: '%' matches any (possibly empty) substring and '_'
// matches exactly one byte. Matching is case-insensitive for ASCII, which
// mirrors how security analysts filter executable and file names collected
// from mixed Windows/Linux fleets.
package like

import "strings"

// Pattern is a compiled LIKE pattern.
type Pattern struct {
	raw      string
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
	lower := strings.ToLower(raw)
	p := &Pattern{raw: raw, lower: lower}
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

// Prefix returns the literal prefix the pattern demands, if any.
// Useful for index range scans: "C:\Win%" has prefix "c:\win".
func (p *Pattern) Prefix() string {
	if p.exact {
		return p.segments[0]
	}
	if p.leading || len(p.segments) == 0 {
		return ""
	}
	// the first segment is a required prefix only if no '_' precedes it
	first, _, _ := strings.Cut(p.lower, "%")
	if i := strings.IndexByte(first, '_'); i >= 0 {
		return first[:i]
	}
	return first
}

// Match reports whether s matches the pattern, case-insensitively: the
// answer is always that of matching the lowercased pattern against
// strings.ToLower(s). An ASCII subject is folded byte by byte as it is
// compared, allocating nothing; any other subject is lowered with
// strings.ToLower first, and folding leaves its lowered form unchanged.
func (p *Pattern) Match(s string) bool {
	if !isASCII(s) {
		s = strings.ToLower(s)
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
