package sqlengine

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokKeyword
	tokOp    // operators and punctuation
	tokParam // ? or :name bind placeholder
)

type token struct {
	kind tokenKind
	text string // keywords are uppercased; idents keep original case
	pos  int    // byte offset of the token's first character
	end  int    // byte offset one past the token's last character
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "NULL": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "FULL": true,
	"OUTER": true, "ON": true, "ASC": true, "DESC": true, "DISTINCT": true,
	"TRUE": true, "FALSE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "OFFSET": true,
	"OVER": true, "PARTITION": true, "ROWS": true, "UNBOUNDED": true,
	"PRECEDING": true, "CURRENT": true, "ROW": true,
}

// lex splits a SQL string into tokens.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n && (isIdentChar(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{tokKeyword, upper, start, i})
			} else {
				toks = append(toks, token{tokIdent, word, start, i})
			}
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot := false
			for i < n && (input[i] >= '0' && input[i] <= '9' || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			// An exponent makes a float (1e9, 2.5E-3) unless an identifier
			// character follows its digits.
			if end, ok := exponentEnd(input, i); ok {
				toks = append(toks, token{tokNumber, input[start:end], start, end})
				i = end
				continue
			}
			// Digit-leading identifiers (warehouse tables like
			// 23_customer_bg, 1e3_x) continue into letters/underscores.
			if !seenDot && i < n && isIdentStart(input[i]) {
				for i < n && isIdentChar(input[i]) {
					i++
				}
				toks = append(toks, token{tokIdent, input[start:i], start, i})
				continue
			}
			toks = append(toks, token{tokNumber, input[start:i], start, i})
		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == quote {
					if i+1 < n && input[i+1] == quote { // doubled quote escape
						sb.WriteByte(quote)
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			if quote == '"' {
				// Double quotes delimit identifiers in standard SQL.
				toks = append(toks, token{tokIdent, sb.String(), start, i})
			} else {
				toks = append(toks, token{tokString, sb.String(), start, i})
			}
		case c == '`': // backtick-quoted identifier
			start := i
			i++
			j := strings.IndexByte(input[i:], '`')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated identifier at offset %d", start)
			}
			toks = append(toks, token{tokIdent, input[i : i+j], start, i + j + 1})
			i += j + 1
		default:
			start := i
			// Multi-char operators first.
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, token{tokOp, two, start, start + 2})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
				toks = append(toks, token{tokOp, string(c), start, start + 1})
				i++
			case '?':
				toks = append(toks, token{tokParam, "?", start, start + 1})
				i++
			case ':': // :name named bind placeholder
				i++
				nameStart := i
				for i < n && isIdentChar(input[i]) {
					i++
				}
				if i == nameStart {
					return nil, fmt.Errorf("sql: expected parameter name after ':' at offset %d", start)
				}
				toks = append(toks, token{tokParam, input[start:i], start, i})
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n, n})
	return toks, nil
}

// exponentEnd returns where the exponent starting at input[i] — e or E, an
// optional sign, then digits — ends; false when there is none, or when an
// identifier character follows it.
func exponentEnd(input string, i int) (int, bool) {
	if i >= len(input) || input[i] != 'e' && input[i] != 'E' {
		return 0, false
	}
	j := i + 1
	if j < len(input) && (input[j] == '+' || input[j] == '-') {
		j++
	}
	digits := j
	for j < len(input) && input[j] >= '0' && input[j] <= '9' {
		j++
	}
	if j == digits || j < len(input) && isIdentChar(input[j]) {
		return 0, false
	}
	return j, true
}

// isIdentStart and isIdentChar are ASCII on purpose: the lexer walks bytes,
// and an identifier byte that starts a word must also continue one, or the
// word loop makes no progress. Other alphabets go in quoted identifiers.
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
