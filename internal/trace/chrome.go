package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteChrome writes the recorded events in the Chrome trace-event JSON
// format (the "JSON Array Format" with a traceEvents wrapper), loadable in
// Perfetto / chrome://tracing. Timestamps and durations are microseconds
// with nanosecond precision kept in three decimals. Output is byte-identical
// across same-seed runs: events are emitted in append order and the
// metadata thread names walk the slot table in ascending tid order. It runs
// after Scheduler.Run returns.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	if t != nil {
		emit(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"sim"}}`)
		for tid, p := range t.procs {
			if p == nil {
				continue
			}
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
				tid, jsonString(t.procName(tid))))
		}
		for _, blk := range t.full {
			for i := range blk {
				emit(chromeEvent(&blk[i]))
			}
		}
		for i := range t.cur {
			emit(chromeEvent(&t.cur[i]))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// chromeEvent renders one event as a JSON object literal.
func chromeEvent(e *Event) string {
	var args string
	if len(e.Args) > 0 {
		args = ",\"args\":{"
		for i, a := range e.Args {
			if i > 0 {
				args += ","
			}
			args += jsonString(a.Key) + ":" + jsonValue(a)
		}
		args += "}"
	}
	switch e.Phase {
	case PhaseComplete:
		return fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d%s}`,
			jsonString(e.Name), jsonString(e.Cat), usec(e.TS), usec(e.Dur), e.Tid, args)
	default: // PhaseInstant
		return fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":1,"tid":%d%s}`,
			jsonString(e.Name), jsonString(e.Cat), usec(e.TS), e.Tid, args)
	}
}

// usec formats a duration as decimal microseconds with the sub-microsecond
// nanoseconds as three fixed decimals, so exact nanosecond timestamps
// survive the trace format's microsecond convention.
func usec(d time.Duration) string {
	ns := d.Nanoseconds()
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// jsonValue renders an Arg's value: integers as decimal literals, strings
// JSON-escaped — the same bytes encoding/json produced for the old
// interface-valued Arg, so trace files stay byte-comparable across the
// tagged-union change.
func jsonValue(a Arg) string {
	switch a.kind {
	case argUint:
		return strconv.FormatUint(uint64(a.num), 10)
	case argStr:
		return jsonString(a.str)
	default:
		return strconv.FormatInt(a.num, 10)
	}
}
