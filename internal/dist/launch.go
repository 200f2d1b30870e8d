package dist

// Worker launchers. The federation's participant set is fixed and fully
// enumerated at session start: the coordinator knows every shard's
// locator because it creates them — a loopback listener per process
// worker, a pipe per in-process one. ProcLauncher is the real thing
// (separate OS processes, killable with prejudice); LocalLauncher runs
// workers as goroutines over net.Pipe, which exercises the identical
// protocol and supervision paths without process spawn latency, so the
// determinism matrix in the tests stays fast.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// A Handle is a live worker connection the coordinator supervises: the
// framed transport plus the means to destroy the worker outright.
type Handle interface {
	net.Conn
	// Kill destroys the worker immediately (SIGKILL for processes,
	// severed pipe for local workers); used by fault drills and when
	// respawning over a corpse.
	Kill() error
}

// A Launcher starts shard workers.
type Launcher interface {
	Start(shard int) (Handle, error)
}

// ProcLauncher launches each worker as a separate OS process: it listens
// on a fresh loopback port, starts Exe with WorkerAddrEnv pointing at
// it, and hands the accepted connection to the coordinator, waiting at
// most acceptTimeout for the worker to dial back. Exe is usually the
// coordinator's own binary (os.Executable), whose main calls MaybeWorker
// before doing anything else. Workers write to the coordinator's stderr.
type ProcLauncher struct {
	Exe  string
	Args []string
}

const acceptTimeout = 10 * time.Second

// procHandle is a process worker: the accepted loopback connection plus
// the process to reap.
type procHandle struct {
	net.Conn
	cmd  *exec.Cmd
	reap sync.Once
	werr error
}

func (h *procHandle) wait() error {
	h.reap.Do(func() { h.werr = h.cmd.Wait() })
	return h.werr
}

func (h *procHandle) Kill() error {
	err := h.cmd.Process.Kill()
	h.wait()
	return err
}

func (h *procHandle) Close() error {
	err := h.Conn.Close()
	// The worker exits once its connection drops; reap it so no zombie
	// outlives the coordinator. A worker that lingers anyway is killed.
	done := make(chan struct{})
	go func() { h.wait(); close(done) }() //mlint:allow gocheck reaps an exited worker process; it touches no simulated state and ends with the process
	//mlint:allow detrange reaping a dead worker process races wall time by design; no simulated state here
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		h.cmd.Process.Kill()
		<-done
	}
	return err
}

func (l *ProcLauncher) Start(shard int) (Handle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	cmd := exec.Command(l.Exe, l.Args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s", WorkerAddrEnv, ln.Addr().String()))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(acceptTimeout))
	conn, err := ln.Accept()
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("dist: shard %d worker never dialed back: %w", shard, err)
	}
	return &procHandle{Conn: conn, cmd: cmd}, nil
}

// LocalLauncher runs each worker as a goroutine serving one end of a
// net.Pipe — the full wire protocol without processes. Killing a local
// worker severs the pipe, which the coordinator observes as a lost
// shard, same as a SIGKILLed process.
type LocalLauncher struct{}

type localHandle struct {
	net.Conn
	peer net.Conn
}

func (h *localHandle) Kill() error {
	h.peer.Close()
	return h.Conn.Close()
}

func (l LocalLauncher) Start(shard int) (Handle, error) {
	cc, wc := net.Pipe()
	//mlint:allow gocheck an in-process shard worker: ServeConn contains its panics and reports them as crashes, and it ends when the coordinator hangs up
	go func() {
		ServeConn(wc)
		wc.Close()
	}()
	return &localHandle{Conn: cc, peer: wc}, nil
}
