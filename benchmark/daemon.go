package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one potluckd process started for a pass. Its socket, data
// directory and log live in its own directory under the work tree.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	sock    string
	exited  chan struct{}
	waitErr error
}

// startDaemon execs potluckd with args plus its socket address and
// waits until the socket accepts connections.
func startDaemon(bin, dir string, args []string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "potluckd.log"))
	if err != nil {
		return nil, err
	}
	// A relative socket path: the daemon inherits this process's working
	// directory, and an absolute path under a deep checkout could exceed
	// the 108-byte limit on Unix socket names.
	d := &daemon{dir: dir, sock: filepath.Join(dir, "d.sock"), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-network", "unix", "-addr", d.sock}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If the benchmark dies without reaching stop (a signal, a panic), the
	// kernel kills the daemon too rather than leaving it serving.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start potluckd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.Dial("unix", d.sock)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("potluckd exited before serving (%v); log:\n%s", d.waitErr, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("potluckd did not open %s within 20s", d.sock)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "potluckd.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop asks the daemon to drain and exit, kills it if it has not after
// 20 seconds, and waits until the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// alive reports an error if the daemon has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("potluckd exited during the run (%v); log:\n%s", d.waitErr, d.logTail())
	default:
		return nil
	}
}

// cpuTime is the daemon's CPU time so far: utime + stime of the whole
// process, in clock ticks of 10 ms (USER_HZ is 100 on Linux).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's peak resident set size in bytes (VmHWM).
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is this process's CPU time so far (user + system).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the host's cumulative CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat.
func hostSteal() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
