package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPlain pins Plain to its definition byte by byte, and checks that
// every plain string encodes under encoding/json as itself in quotes.
func TestPlain(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "id-" + string([]byte{byte(c)}) + "-x"
		want := c >= 0x20 && c <= 0x7E && !strings.ContainsRune(`"\<>&`, rune(c))
		if got := Plain(s); got != want {
			t.Fatalf("Plain(%q) = %v, want %v", s, got, want)
		}
		if !want {
			continue
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+s+`"` {
			t.Fatalf("plain %q encodes as %s", s, b)
		}
	}
	for _, s := range []string{"", "t42", "a/b.c:d e~f"} {
		if !Plain(s) {
			t.Fatalf("Plain(%q) = false", s)
		}
	}
	for _, s := range []string{"é", " ", "\xff", "a\x7f"} {
		if Plain(s) {
			t.Fatalf("Plain(%q) = true", s)
		}
	}
}
