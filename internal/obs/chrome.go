package obs

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// WriteChrome writes the trace in the Chrome trace-event JSON format
// ({"traceEvents":[...]}), loadable in chrome://tracing and Perfetto.
// Spans become complete ("X") events; instant events become "i"
// events; span notes become event args. All events share pid 1; the
// tid is a display lane assigned so that overlapping sibling spans
// (concurrent work) land on separate rows while sequential nesting
// stays on its parent's row.
func (t *Trace) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	var emit func(sp *Span, lane int, nextLane *int)
	emitEvent := func(ev Event, lane int) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(`{"name":`)
		bw.WriteString(strconv.Quote(ev.Kind))
		bw.WriteString(`,"ph":"i","s":"t","ts":`)
		bw.WriteString(strconv.FormatInt(us(ev.At), 10))
		bw.WriteString(`,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(lane))
		bw.WriteString(`,"args":{"detail":`)
		bw.WriteString(strconv.Quote(ev.Detail))
		bw.WriteString(`}}`)
	}
	emit = func(sp *Span, lane int, nextLane *int) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(`{"name":`)
		bw.WriteString(strconv.Quote(sp.Name()))
		bw.WriteString(`,"ph":"X","ts":`)
		bw.WriteString(strconv.FormatInt(us(sp.Start()), 10))
		bw.WriteString(`,"dur":`)
		bw.WriteString(strconv.FormatInt(us(sp.Dur()), 10))
		bw.WriteString(`,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(lane))
		bw.WriteString(`,"args":{`)
		for i, n := range sp.Notes() {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Quote(n.Key))
			bw.WriteByte(':')
			bw.WriteString(strconv.Quote(n.Value))
		}
		bw.WriteString(`}}`)
		for _, ev := range sp.Events() {
			emitEvent(ev, lane)
		}
		// children that overlap an already-placed sibling move to a
		// fresh lane; sequential children stay on the parent's lane
		laneEnd := map[int]time.Duration{}
		for _, c := range sp.Children() {
			cl := lane
			if end, ok := laneEnd[cl]; ok && c.Start() < end {
				*nextLane++
				cl = *nextLane
			}
			if e := c.Start() + c.Dur(); e > laneEnd[cl] {
				laneEnd[cl] = e
			}
			emit(c, cl, nextLane)
		}
	}
	nextLane := 0
	for _, sp := range t.Roots() {
		emit(sp, 0, &nextLane)
	}
	for _, ev := range t.RootEvents() {
		emitEvent(ev, 0)
	}
	bw.WriteString(`]}`)
	return bw.Flush()
}

func us(d time.Duration) int64 { return int64(d / time.Microsecond) }
