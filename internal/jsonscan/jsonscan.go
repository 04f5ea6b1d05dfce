// Package jsonscan is the repository's one hand-rolled JSON decoder: a
// cursor over an input buffer plus the primitives that decode objects,
// arrays, fixed arrays, strings, unsigned integers and raw value spans
// without reflection. Callers write the per-shape field switch; the
// scanner owns the grammar.
//
// Behavior is pinned to encoding/json, not merely inspired by it: a
// shape decoded with these primitives accepts, rejects and produces
// exactly what json.Unmarshal into the equivalent Go struct would
// (the runs and server packages differentially fuzz their shapes
// against it). That covers the obscure corners too: case-folded key
// matching (FoldEq), duplicate keys decoding into the earlier elements,
// null as leave-unchanged (but slice-clearing), short fixed arrays
// zero-filled and long ones truncated, lone surrogates and invalid
// UTF-8 replaced by U+FFFD, and the scanner's nesting cap.
//
// The package also holds the one predicate encoders share with it,
// Plain: the strings encoding/json writes unchanged between quotes.
package jsonscan

import (
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth mirrors encoding/json's scanner nesting cap: a document may
// hold at most this many open containers at once. Inputs nesting deeper
// are rejected there, so they are rejected here too.
const MaxDepth = 10000

var errEnd = errors.New("unexpected end of JSON input")

// Decoder is the scanner state: input, cursor, open-container depth,
// and a scratch buffer backing escaped-string decodes (clean strings —
// no escapes, no control bytes, pure ASCII — are sliced zero-copy). The
// zero value is ready to use after Reset; reusing one reuses the
// scratch buffer.
type Decoder struct {
	b     []byte
	i     int
	depth int
	buf   []byte
}

// Reset points the decoder at the start of b.
func (d *Decoder) Reset(b []byte) {
	d.b, d.i, d.depth = b, 0, 0
}

// Null skips whitespace and, when the next value is the literal null,
// consumes it and reports true: for values whose null case differs
// from leaving them unchanged, such as a pointer that null clears.
func (d *Decoder) Null() (bool, error) {
	c, err := d.peek()
	if err != nil || c != 'n' {
		return false, err
	}
	return true, d.literal("null")
}

// Object decodes one {...} value: depth accounting, key framing, comma
// discipline. field is called with the cursor before the value of each
// key and must consume exactly that value (every primitive skips the
// whitespace in front of its value); key is valid only during the
// call. null is consumed without calling field — it leaves a struct
// unchanged — and any other non-object value is rejected.
func (d *Decoder) Object(field func(key []byte) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '{' {
		return d.errInvalid(c, "looking for beginning of object")
	}
	if err := d.push(); err != nil {
		return err
	}
	d.i++
	if c, err := d.peek(); err != nil {
		return err
	} else if c == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		c, err := d.peek()
		if err != nil {
			return err
		}
		if c != '"' {
			return d.errInvalid(c, "looking for beginning of object key string")
		}
		key, _, err := d.str()
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.errInvalid(c, "after object key")
		}
		d.i++
		if err := field(key); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.i++
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.errInvalid(c, "after object key:value pair")
		}
	}
}

// Array decodes a JSON array into *sp with encoding/json's slice
// semantics: null sets the slice nil, [] sets it empty and non-nil,
// and elements decode in place into the existing backing array — so a
// duplicate key re-decodes into the earlier elements, and an element
// inside the capacity but past the length keeps whatever it held
// (encoding/json grows the length, not the contents). elem is called
// with the cursor before each element and must consume exactly it,
// including a null element, which leaves the element unchanged.
func Array[T any](d *Decoder, sp *[]T, elem func(*T) error) error {
	if null, err := d.Null(); null || err != nil {
		if null {
			*sp = nil
		}
		return err
	}
	if err := d.open(); err != nil {
		return err
	}
	if c, err := d.peek(); err != nil {
		return err
	} else if c == ']' {
		d.i++
		d.depth--
		*sp = []T{}
		return nil
	}
	s, n := *sp, 0
	for {
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		if err := elem(&s[n]); err != nil {
			return err
		}
		n++
		more, err := d.next()
		if err != nil {
			return err
		}
		if !more {
			*sp = s[:n]
			return nil
		}
	}
}

// Fixed decodes a JSON array into the fixed-size array backing a
// (pass p[:] for a *[N]T): null leaves it unchanged, a short array
// zero-fills the remainder, and elements past len(a) are skipped
// unchecked — encoding/json's Go-array semantics. elem is as for Array.
func Fixed[T any](d *Decoder, a []T, elem func(*T) error) error {
	if null, err := d.Null(); null || err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}
	n := 0
	if c, err := d.peek(); err != nil {
		return err
	} else if c == ']' {
		d.i++
		d.depth--
	} else {
		for {
			if n < len(a) {
				err = elem(&a[n])
			} else {
				err = d.Skip()
			}
			if err != nil {
				return err
			}
			n++
			more, err := d.next()
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	if n < len(a) {
		clear(a[n:])
	}
	return nil
}

// open consumes the '[' of an array, enforcing the nesting cap.
func (d *Decoder) open() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '[' {
		return d.errInvalid(c, "looking for beginning of array")
	}
	if err := d.push(); err != nil {
		return err
	}
	d.i++
	return nil
}

// next consumes the separator after an array element: true on ',',
// false on the closing ']'.
func (d *Decoder) next() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		d.i++
		return true, nil
	case ']':
		d.i++
		d.depth--
		return false, nil
	}
	return false, d.errInvalid(c, "after array element")
}

// String decodes a string value into *s; null leaves *s unchanged.
func (d *Decoder) String(s *string) error {
	v, _, ok, err := d.stringValue()
	if ok {
		*s = string(v)
	}
	return err
}

// Bytes decodes a string value into *p without copying when the string
// needs no unescaping: *p then aliases the input, which must outlive
// it. Escaped or non-ASCII strings are decoded into a fresh slice. null
// leaves *p unchanged.
func (d *Decoder) Bytes(p *[]byte) error {
	v, alias, ok, err := d.stringValue()
	if ok {
		if !alias {
			v = append([]byte(nil), v...)
		}
		*p = v
	}
	return err
}

// stringValue reads a string-typed value: ok reports whether one was
// read (false on null), alias whether v is a slice of the input rather
// than of the scratch buffer, where it is valid until the next string
// read.
func (d *Decoder) stringValue() (v []byte, alias, ok bool, err error) {
	c, err := d.peek()
	if err != nil {
		return nil, false, false, err
	}
	switch c {
	case 'n':
		return nil, false, false, d.literal("null")
	case '"':
		v, alias, err = d.str()
		return v, alias, err == nil, err
	}
	return nil, false, false, d.errInvalid(c, "decoding a string value")
}

// Raw consumes one value of any shape and sets *p to its exact bytes,
// aliasing the input — json.RawMessage's semantics, so null yields the
// four bytes "null".
func (d *Decoder) Raw(p *[]byte) error {
	d.ws()
	start := d.i
	if err := d.Skip(); err != nil {
		return err
	}
	*p = d.b[start:d.i]
	return nil
}

// Uint64 decodes a JSON number into *v; null leaves *v unchanged.
// Negative, fractional, exponential and overflowing numbers are
// rejected, exactly the literals strconv.ParseUint rejects for
// encoding/json's uint64 path.
func (d *Decoder) Uint64(v *uint64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errInvalid(c, "decoding an unsigned integer")
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return fmt.Errorf("cannot unmarshal number %s into uint64", lit)
		}
		dgt := uint64(c - '0')
		if n > (math.MaxUint64-dgt)/10 {
			return fmt.Errorf("cannot unmarshal number %s into uint64: overflow", lit)
		}
		n = n*10 + dgt
	}
	*v = n
	return nil
}

// Skip consumes one well-formed JSON value of any shape. The whole
// value is validated — encoding/json's scanner checks unknown fields
// too, so a malformed skipped value must reject the document here as
// well.
func (d *Decoder) Skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := d.scanNumber()
		return err
	case c == '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		if c, err := d.peek(); err != nil {
			return err
		} else if c == ']' {
			d.i++
			d.depth--
			return nil
		}
		for {
			if err := d.Skip(); err != nil {
				return err
			}
			more, err := d.next()
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	}
	return d.errInvalid(c, "looking for beginning of value")
}

// End verifies nothing but whitespace follows the value just decoded.
func (d *Decoder) End() error {
	d.ws()
	if d.i < len(d.b) {
		return d.errInvalid(d.b[d.i], "after top-level value")
	}
	return nil
}

// str decodes the string at d.i (which must be '"'), returning its
// bytes. Clean ASCII is sliced zero-copy out of the input (alias true);
// escapes, control-byte errors and non-ASCII (which may need
// invalid-UTF-8 replacement) take the scratch-buffer slow path. The
// returned slice is valid only until the next str.
func (d *Decoder) str() (v []byte, alias bool, err error) {
	d.i++
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return d.b[start : d.i-1], true, nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			v, err := d.strSlow(start)
			return v, false, err
		}
		if c < 0x20 {
			return nil, false, d.errInvalid(c, "in string literal")
		}
		d.i++
	}
	return nil, false, errEnd
}

// strSlow finishes a string decode that needs byte processing,
// mirroring encoding/json's unquote: escape table, \u with UTF-16
// surrogate pairing (lone surrogates become U+FFFD without error), and
// invalid raw UTF-8 replaced with U+FFFD.
func (d *Decoder) strSlow(start int) ([]byte, error) {
	buf := append(d.buf[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.buf = buf
			return buf, nil
		case c == '\\':
			d.i++
			if d.i >= len(d.b) {
				return nil, errEnd
			}
			e := d.b[d.i]
			d.i++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				rr, ok := d.hex4()
				if !ok {
					return nil, fmt.Errorf("invalid \\u escape in string literal")
				}
				if utf16.IsSurrogate(rr) {
					// Try to pair with a following \uXXXX; an unpairable
					// surrogate decodes to U+FFFD and the following escape
					// (if any) is processed on its own — encoding/json's
					// exact behavior.
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						save := d.i
						d.i += 2
						if rr1, ok1 := d.hex4(); ok1 {
							if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
								buf = utf8.AppendRune(buf, dec)
								continue
							}
						}
						d.i = save
					}
					rr = unicode.ReplacementChar
				}
				buf = utf8.AppendRune(buf, rr)
			default:
				return nil, fmt.Errorf("invalid escape code '\\%c' in string literal", e)
			}
		case c < 0x20:
			return nil, d.errInvalid(c, "in string literal")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			buf = utf8.AppendRune(buf, r)
			d.i += size
		}
	}
	return nil, errEnd
}

// hex4 parses exactly four hex digits at d.i, advancing past them.
func (d *Decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.b) {
		return 0, false
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	d.i += 4
	return r, true
}

// scanNumber consumes one number per the JSON grammar and returns its
// literal bytes. The follower byte is the caller's problem: an illegal
// one fails the comma/close check that comes next, as in encoding/json.
func (d *Decoder) scanNumber() ([]byte, error) {
	start := d.i
	if d.b[d.i] == '-' {
		d.i++
	}
	if d.i >= len(d.b) {
		return nil, errEnd
	}
	switch c := d.b[d.i]; {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	default:
		return nil, d.errInvalid(c, "in numeric literal")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := d.digits(); err != nil {
			return nil, err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if err := d.digits(); err != nil {
			return nil, err
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes one or more decimal digits.
func (d *Decoder) digits() error {
	if d.i >= len(d.b) {
		return errEnd
	}
	if c := d.b[d.i]; c < '0' || c > '9' {
		return d.errInvalid(c, "in numeric literal")
	}
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return nil
}

// literal consumes an exact keyword (true/false/null). The character
// after it is validated by whatever parse step follows, matching the
// scanner's state machine.
func (d *Decoder) literal(lit string) error {
	if len(d.b)-d.i < len(lit) {
		return errEnd
	}
	if string(d.b[d.i:d.i+len(lit)]) != lit {
		return fmt.Errorf("invalid literal, expected %q", lit)
	}
	d.i += len(lit)
	return nil
}

func (d *Decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *Decoder) peek() (byte, error) {
	if d.i < len(d.b) && d.b[d.i] > ' ' {
		return d.b[d.i], nil
	}
	d.ws()
	if d.i >= len(d.b) {
		return 0, errEnd
	}
	return d.b[d.i], nil
}

// push opens one container level, enforcing the nesting cap.
func (d *Decoder) push() error {
	d.depth++
	if d.depth > MaxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

func (d *Decoder) errInvalid(c byte, ctx string) error {
	return fmt.Errorf("invalid character %q %s", c, ctx)
}

// FoldEq reports whether key matches the struct field name upper under
// encoding/json's case-insensitive fallback, where upper is the field
// name already upper-cased (ASCII). The fold is encoding/json's: each
// rune mapped to the minimum of its unicode.SimpleFold orbit — so
// exotic equivalences like the Kelvin sign folding to 'K' match exactly
// as they do there. Callers try the exact names first.
func FoldEq(key []byte, upper string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(upper) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != upper[j] {
				return false
			}
			i++
			j++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		r = foldRune(r)
		if r >= utf8.RuneSelf || byte(r) != upper[j] {
			return false
		}
		i += n
		j++
	}
	return j == len(upper)
}

// foldRune maps r to the minimum rune of its SimpleFold orbit —
// encoding/json's canonical fold.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
