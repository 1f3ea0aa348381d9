package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildRexpd compiles cmd/rexpd into dir and returns the binary's
// path.  The bench module's replace directive makes the root module's
// packages resolvable from the bench directory.
func buildRexpd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "rexpd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "rexptree/cmd/rexpd")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build rexptree/cmd/rexpd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned rexpd.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	done   chan struct{} // closed once the stderr reader has seen EOF
	stderr []string      // the daemon's last lines, for failure reports
}

// spawn starts rexpd with the given flags on a kernel-chosen loopback
// port and waits for its serving line — which a follower prints only
// after its bootstrap, so returning means ready.  The child dies with
// the bench (Pdeathsig) even if the bench is killed mid-run.
func spawn(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if len(d.stderr) == 200 {
				d.stderr = d.stderr[1:]
			}
			d.stderr = append(d.stderr, line)
			if rest, ok := strings.CutPrefix(line, "rexpd: serving http://"); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					select {
					case addrc <- rest[:i]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
		return d, nil
	case <-d.done:
		cmd.Wait()
		return nil, fmt.Errorf("rexpd %v exited before serving:\n%s", args, strings.Join(d.stderr, "\n"))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("rexpd %v did not report a serving address within 60s", args)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// kill is the crash: SIGKILL, then reap.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// drain is the graceful stop: SIGTERM, wait for the clean exit, and
// return how long the drain took.
func (d *daemon) drain() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, fmt.Errorf("rexpd did not exit within 60s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("rexpd exit: %w\n%s", err, strings.Join(d.stderr, "\n"))
	}
	return time.Since(start), nil
}

// procUsage is a process's CPU time and peak resident set, read from
// /proc (Linux): the only way to see a live child's usage from outside.
type procUsage struct {
	cpuSeconds float64
	rssPeakMB  float64
}

func usageOf(pid int) procUsage {
	var u procUsage
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the whole line, in clock ticks.
		s := string(data)
		if i := strings.LastIndexByte(s, ')'); i >= 0 {
			f := strings.Fields(s[i+1:])
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				u.cpuSeconds = (ut + st) / 100 // USER_HZ is 100 on every Linux ABI Go supports
			}
		}
	}
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				u.rssPeakMB = kb / 1024
			}
		}
	}
	return u
}
