package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one interval the benchmark recorded around a call into the
// program: build, run, txn (with attempt children), scan, drain, audit.
// Start and End are simulated time, so the spans line up with the program's
// own Chrome trace; Wall is the host time the call took, where measured.
type span struct {
	Name   string
	Parent int // index of the span that caused this one; -1 = none
	Client int // the client's id (one timeline per client); -1 = the harness
	Start  time.Duration
	End    time.Duration
	Wall   time.Duration
}

// spanLog keeps the traced pass's spans in memory until the pass ends. A nil
// log records nothing, which is how untraced passes run.
type spanLog struct {
	spans []span
	run   int // the open "run" span; parent of every txn, scan and drain
}

// add appends a span and returns its index.
func (l *spanLog) add(s span) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// close sets the end of a span opened by add.
func (l *spanLog) close(i int, end time.Duration) { l.spans[i].End = end }

// openRun opens the "run" span, the parent of what the drivers call until
// closeRun.
func (l *spanLog) openRun(start time.Duration) {
	if l != nil {
		l.run = l.add(span{Name: "run", Parent: -1, Client: -1, Start: start})
	}
}

func (l *spanLog) closeRun(end, wall time.Duration) {
	if l != nil {
		l.spans[l.run].End, l.spans[l.run].Wall = end, wall
	}
}

// writeChrome writes the spans as Chrome trace events (chrome://tracing,
// ui.perfetto.dev), timestamps in simulated microseconds.
func (l *spanLog) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[")
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"wall_us\":%.3f}}",
			s.Name, us(s.Start), us(s.End-s.Start), s.Client+1, i, s.Parent, us(s.Wall))
	}
	fmt.Fprint(bw, "\n]\n")
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeFile creates dir/name and fills it with write.
func writeFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
