package runs

import (
	"strconv"
	"unicode/utf8"
)

// This file is the allocation-free wire encoder for lineage answers.
// AppendJSON produces bytes identical to encoding/json.Marshal on the
// same Answer — field order, omitempty behaviour, HTML-escaping and
// all (TestAppendJSONMatchesMarshal pins that, including the nasty
// string cases) — while appending into a caller-owned buffer so the
// serve path never round-trips through reflection or an intermediate
// []byte per response.
//
// The ID lists are where the bytes are. Every ID table records once,
// when its IDs enter the daemon, whether all of them are
// jsonscan.Plain; an answer carries those bits, and a list whose bit is
// set is encoded by copying each ID between quotes — exactly what the
// escaper would produce for it, without the per-byte scan.

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with the exact
// escaping rules of encoding/json's default (HTML-escaping) encoder:
// `"`/`\`/control bytes escaped, `<` `>` `&` as \u00xx, invalid UTF-8
// as �, and U+2028/U+2029 escaped for JSONP safety.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendString appends s as a JSON string literal: by copying when the
// caller knows s is jsonscan.Plain, through the escaper otherwise.
func appendString(dst []byte, s string, plain bool) []byte {
	if !plain {
		return appendJSONString(dst, s)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendStringArray appends xs as a JSON array of strings, copying them
// when plain says every one is jsonscan.Plain; a nil slice encodes as
// null, matching encoding/json.
func appendStringArray(dst []byte, xs []string, plain bool) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, x, plain)
	}
	return append(dst, ']')
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendJSON appends the answer's JSON encoding to dst and returns the
// extended buffer. The output is byte-identical to json.Marshal(a).
func (a *Answer) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"workflow":`...)
	dst = appendJSONString(dst, a.Workflow)
	dst = append(dst, `,"run":`...)
	dst = appendJSONString(dst, a.Run)
	dst = append(dst, `,"artifact":`...)
	dst = appendJSONString(dst, a.Artifact)
	if a.Producer != "" {
		dst = append(dst, `,"producer":`...)
		dst = appendJSONString(dst, a.Producer)
	}
	dst = append(dst, `,"level":`...)
	dst = appendJSONString(dst, a.Level)
	dst = append(dst, `,"direction":`...)
	dst = appendJSONString(dst, a.Direction)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, a.Version, 10)
	dst = append(dst, `,"tasks":`...)
	dst = appendStringArray(dst, a.Tasks, a.plainTasks)
	dst = append(dst, `,"artifacts":`...)
	dst = appendStringArray(dst, a.Artifacts, a.plainArts)
	if a.View != "" {
		dst = append(dst, `,"view":`...)
		dst = appendJSONString(dst, a.View)
	}
	if a.ViewSound != nil {
		dst = append(dst, `,"view_sound":`...)
		dst = appendBool(dst, *a.ViewSound)
	}
	if len(a.Composites) > 0 {
		dst = append(dst, `,"composites":`...)
		dst = appendStringArray(dst, a.Composites, a.plainComps)
	}
	if a.Sound != nil {
		dst = append(dst, `,"sound":`...)
		dst = appendBool(dst, *a.Sound)
	}
	if len(a.Spurious) > 0 {
		dst = append(dst, `,"spurious_composites":`...)
		dst = appendStringArray(dst, a.Spurious, a.plainComps)
	}
	if len(a.Missing) > 0 {
		dst = append(dst, `,"missing_composites":`...)
		dst = appendStringArray(dst, a.Missing, a.plainComps)
	}
	if len(a.SpuriousTasks) > 0 {
		dst = append(dst, `,"spurious_tasks":`...)
		dst = appendStringArray(dst, a.SpuriousTasks, a.plainTasks)
	}
	if len(a.Witness) > 0 {
		dst = append(dst, `,"witness":[`...)
		for i := range a.Witness {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &a.Witness[i]
			dst = append(dst, `{"relation":`...)
			dst = appendString(dst, e.Relation, a.plainWitness)
			dst = append(dst, `,"process":`...)
			dst = appendString(dst, e.Process, a.plainWitness)
			dst = append(dst, `,"artifact":`...)
			dst = appendString(dst, e.Artifact, a.plainWitness)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}
