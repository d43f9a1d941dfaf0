package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"congestmwc/internal/congest"
)

// JSONL is an Observer that streams every simulation event as one JSON
// object per line — a machine-readable trace for offline analysis. Event
// shapes (field `ev` discriminates):
//
//	{"ev":"run","round":0,"begin":true}
//	{"ev":"phase","path":"girth:sampled-bfs","round":3,"begin":true}
//	{"ev":"msg","round":4,"from":1,"to":2,"tag":101,"size":3,"words":[7,9]}
//	{"ev":"round","round":4,"messages":12,"words":30,"cutWords":0,
//	 "active":5,"maxLinkWords":8,"maxQueueLen":3}
//
// End events carry "begin":false. A round event carries "gap" — the empty
// rounds the scheduler skipped immediately before it — only when that is
// nonzero; round events are written for executed rounds only. Payload
// words are included only when Words is set (they dominate trace size).
// Write errors are sticky and reported by Err, not per event.
type JSONL struct {
	W io.Writer
	// Words includes message payloads in msg events.
	Words bool

	buf []byte // one encoded line, reused across events
	err error
}

var _ congest.Observer = (*JSONL)(nil)

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }

// Wants implements congest.Observer: everything but round starts, which
// the round events imply.
func (j *JSONL) Wants() congest.Mask {
	return congest.AllEvents &^ congest.MaskOf(congest.KindRoundStart)
}

// Observe implements congest.Observer. Each event is encoded by hand into
// one reused line buffer, with keys in the order shown above; phase paths
// are escaped by encoding/json.
func (j *JSONL) Observe(ev *congest.Event) {
	if j.err != nil {
		return
	}
	b := append(j.buf[:0], `{"ev":`...)
	switch ev.Kind {
	case congest.KindRunStart, congest.KindRunEnd:
		b = append(b, `"run"`...)
		b = appendInt(b, "round", int64(ev.Round))
		b = strconv.AppendBool(append(b, `,"begin":`...), ev.Kind == congest.KindRunStart)
	case congest.KindPhaseBegin, congest.KindPhaseEnd:
		path, _ := json.Marshal(ev.Phase) // a string always marshals
		b = append(append(b, `"phase","path":`...), path...)
		b = appendInt(b, "round", int64(ev.Round))
		b = strconv.AppendBool(append(b, `,"begin":`...), ev.Kind == congest.KindPhaseBegin)
	case congest.KindMessage:
		b = append(b, `"msg"`...)
		b = appendInt(b, "round", int64(ev.Round))
		b = appendInt(b, "from", int64(ev.From))
		b = appendInt(b, "to", int64(ev.To))
		b = appendInt(b, "tag", ev.Msg.Tag)
		b = appendInt(b, "size", int64(ev.Msg.Size()))
		if j.Words && len(ev.Msg.Words) > 0 {
			b = append(b, `,"words":[`...)
			for i, w := range ev.Msg.Words {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, w, 10)
			}
			b = append(b, ']')
		}
	case congest.KindRoundEnd:
		rs := &ev.Stats
		b = append(b, `"round"`...)
		b = appendInt(b, "round", int64(ev.Round))
		b = appendInt(b, "messages", int64(rs.Messages))
		b = appendInt(b, "words", int64(rs.Words))
		b = appendInt(b, "cutWords", int64(rs.CutWords))
		b = appendInt(b, "active", int64(rs.Active))
		b = appendInt(b, "maxLinkWords", int64(rs.MaxLinkWords))
		b = appendInt(b, "maxQueueLen", int64(rs.MaxQueueLen))
		if rs.Gap > 0 {
			b = appendInt(b, "gap", int64(rs.Gap))
		}
	default:
		return
	}
	j.buf = append(b, "}\n"...)
	_, j.err = j.W.Write(j.buf)
}

// appendInt appends the member ,"key":v.
func appendInt(b []byte, key string, v int64) []byte {
	b = append(append(append(b, `,"`...), key...), `":`...)
	return strconv.AppendInt(b, v, 10)
}
