package jsonscan

// Plain reports whether s encodes as a JSON string by quoting alone:
// every byte is printable ASCII (0x20–0x7E) and none is `"`, `\`, `<`,
// `>` or `&`. For such a string encoding/json's default (HTML-escaping)
// encoder writes exactly `"` + s + `"`, so an encoder that knows a
// whole table of IDs is plain may copy them without the escape scan.
// Tables record this once, when their IDs enter the daemon.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes Plain accepts.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7E; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()
