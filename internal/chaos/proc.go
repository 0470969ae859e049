package chaos

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Proc supervises one subprocess under chaos test: it captures stderr,
// watches for a readiness line, and exposes the kill levers the crash
// suites pull — SIGKILL for a crash that skips every cleanup path,
// SIGTERM for a graceful shutdown.
type Proc struct {
	cmd *exec.Cmd

	mu  sync.Mutex
	out bytes.Buffer
}

// StartProc launches cmd (which must not have Stderr set), scans its
// stderr for the first line containing readyMarker, and returns the
// first whitespace-separated token following the marker — for ilprofd,
// the listen address after "listening on ". On timeout the process is
// killed and the collected output is included in the error.
func StartProc(cmd *exec.Cmd, readyMarker string, timeout time.Duration) (*Proc, string, error) {
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	p := &Proc{cmd: cmd}
	readyCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, readyMarker); i >= 0 {
				fields := strings.Fields(line[i+len(readyMarker):])
				token := ""
				if len(fields) > 0 {
					token = fields[0]
				}
				select {
				case readyCh <- token:
				default:
				}
			}
		}
	}()
	select {
	case token := <-readyCh:
		return p, token, nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("chaos: process never reported %q; output:\n%s",
			readyMarker, p.Output())
	}
}

// Output returns everything the process has written to stderr so far.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Kill9 delivers SIGKILL: no handlers, no flush, no cleanup — the
// kernel-level crash the WAL ack barrier must survive.
func (p *Proc) Kill9() error { return p.cmd.Process.Kill() }

// Signal delivers an arbitrary signal (SIGTERM for graceful shutdown).
func (p *Proc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Wait reaps the process and returns its exit error, if any.
func (p *Proc) Wait() error { return p.cmd.Wait() }
