package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonProc is one cmd/listrankd process on a loopback port it picked
// itself and reported through -addr-file.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // receives cmd.Wait's result once
	log  *os.File
}

// startDaemon execs the daemon with its default options and returns
// once it has written its address. The child is killed if this process
// dies without stopping it.
func startDaemon(ctx context.Context, path, workdir string) (*daemonProc, error) {
	if path == "" {
		return nil, errors.New("serve-small needs -daemon, the path of a listrankd binary")
	}
	addrFile := filepath.Join(workdir, fmt.Sprintf("listrankd-%d.addr", os.Getpid()))
	_ = os.Remove(addrFile) // a stale file from a killed run; absent is fine
	logf, err := os.OpenFile(filepath.Join(workdir, "listrankd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start listrankd: %w", err)
	}
	d := &daemonProc{cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { d.done <- cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.kill()
			return nil, fmt.Errorf("listrankd exited before listening: %v", err)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("listrankd did not report its address within 10s")
		}
	}
}

// terminate sends SIGTERM and waits for the drain, killing the daemon
// if it has not exited after 20s. It returns the drain's verdict.
func (d *daemonProc) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return fmt.Errorf("signal listrankd: %w", err)
	}
	select {
	case err := <-d.done:
		d.log.Close()
		return checkDrain(err)
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("listrankd did not drain within 20s after SIGTERM")
	}
}

// kill stops the daemon without a drain and reaps it.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine: Wait below reaps either way
	err := <-d.done
	d.done <- err
	d.log.Close()
}

// cpu returns the daemon's user plus system CPU time so far, read from
// /proc (in clock ticks of 10ms).
func (d *daemonProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("unparsable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// metrics fetches the daemon's /metrics text.
func (d *daemonProc) metrics() (string, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %s", resp.Status)
	}
	return string(b), nil
}

// httpRequest is a complete HTTP/1.1 POST carrying a request frame.
func httpRequest(path string, frame []byte) []byte {
	h := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: listrankd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", path, len(frame))
	return append([]byte(h), frame...)
}

// httpConn is one keep-alive HTTP/1.1 connection with a minimal client:
// the requests are pre-encoded, and a response is read by its
// Content-Length into a reused buffer.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() {
	if h != nil {
		h.c.Close()
	}
}

// do sends req and returns the response body and X-Outcome header. The
// body is valid until the next call. Any error leaves the connection
// unusable.
func (h *httpConn) do(req []byte) (body []byte, outcome string, err error) {
	if _, err := h.c.Write(req); err != nil {
		return nil, "", err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, "", err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return nil, "", fmt.Errorf("bad status line %q", line)
	}
	status := string(line[9:12])
	clen := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return nil, "", err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return nil, "", fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("X-Outcome")):
			outcome = string(v)
		}
	}
	if clen < 0 {
		return nil, outcome, fmt.Errorf("status %s response without Content-Length", status)
	}
	if cap(h.body) < clen {
		h.body = make([]byte, clen)
	}
	h.body = h.body[:clen]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return nil, outcome, err
	}
	if status != "200" || outcome != "served" {
		return h.body, outcome, fmt.Errorf("status %s, outcome %q: %s", status, outcome, bytes.TrimSpace(h.body))
	}
	return h.body, outcome, nil
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
