package main

import (
	"crypto/sha256"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"unsafe"
)

// The machine-speed probe. On a shared VM the CPU time of the same
// work drifts with what the host's other tenants do: one serve-cached
// seed took 0.47 and 0.72 CPU-s per round in two runs minutes apart. The probe is a fixed amount of work that does
// not touch the program, one part for each kind of work the workloads
// do: hashing (ALU), sorting (memory and branches), small appends each
// followed by fsync (system calls, as the journals make them) and
// round trips over a loopback TCP connection (network system calls
// and goroutine handoffs between threads, as HTTP makes them). It runs
// after every round, and cpu_norm_s scales the rounds' CPU time by how
// much slower or faster the probe ran than on the reference machine,
// so a run on a busy host and one on a quiet host read alike while the
// program's own cost still moves the metric one for one.

const (
	probeHashRounds = 32      // SHA-256 passes over a buffer of ...
	probeHashBytes  = 1 << 18 // ... this many bytes
	probeSortLen    = 1 << 16 // uint32s sorted per probe
	probeSyncs      = 48      // 256-byte appends, each fsynced
	probeTrips      = 128     // 64-byte loopback round trips
	// probeRefS is the probe's CPU time (the geometric mean of its
	// parts) on the reference machine of README.md at a steal share
	// under 1%. It only sets the scale of cpu_norm_s, which there reads
	// about the same as the unscaled CPU time.
	probeRefS = 0.004
)

type probe struct {
	hash  []byte
	keys  []uint32
	sort  []uint32
	block []byte
	msg   []byte
	f     *os.File
	ln    net.Listener
	conn  net.Conn
	echo  chan error // the echo goroutine's exit
}

func newProbe(dir string) (p *probe, err error) {
	p = &probe{
		hash:  make([]byte, probeHashBytes),
		keys:  make([]uint32, probeSortLen),
		sort:  make([]uint32, probeSortLen),
		block: make([]byte, 256),
		msg:   make([]byte, 64),
		echo:  make(chan error, 1),
	}
	x := uint32(1)
	for i := range p.keys {
		x = x*1664525 + 1013904223
		p.keys[i] = x
	}
	for i := range p.hash {
		p.hash[i] = byte(i * 7)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, p.close())
		}
	}()
	if p.f, err = os.OpenFile(filepath.Join(dir, "probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return p, err
	}
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return p, err
	}
	go func() { p.echo <- echo(p.ln) }()
	p.conn, err = net.Dial("tcp", p.ln.Addr().String())
	return p, err
}

// echo serves one connection, writing back every 64-byte message.
func echo(ln net.Listener) error {
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 64)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return nil // the probe closed its end
		}
		if _, err := c.Write(buf); err != nil {
			return err
		}
	}
}

// close releases the probe's file and connection and waits for the
// echo goroutine to return.
func (p *probe) close() error {
	var errs []error
	if p.conn != nil {
		errs = append(errs, p.conn.Close())
	}
	if p.ln != nil {
		errs = append(errs, p.ln.Close())
		if err := <-p.echo; !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	if p.f != nil {
		errs = append(errs, p.f.Close())
	}
	return errors.Join(errs...)
}

// run does the probe's work once and returns its CPU seconds: the
// geometric mean of its parts' CPU times, so each kind of work weighs
// the same however long it takes. The first three parts are timed on
// their own locked thread; the round trips, which take two, by the
// process. It allocates nothing, so no garbage collection lands in it.
func (p *probe) run() (float64, error) {
	var parts [4]float64
	runtime.LockOSThread()
	t := threadCPU()
	for i := 0; i < probeHashRounds; i++ {
		h := sha256.Sum256(p.hash)
		p.hash[0] = h[0]
	}
	parts[0], t = threadCPU()-t, threadCPU()
	copy(p.sort, p.keys)
	slices.Sort(p.sort)
	parts[1], t = threadCPU()-t, threadCPU()
	err := p.f.Truncate(0)
	for i := 0; i < probeSyncs && err == nil; i++ {
		if _, err = p.f.Write(p.block); err == nil {
			err = p.f.Sync()
		}
	}
	parts[2] = threadCPU() - t
	runtime.UnlockOSThread()
	c := cpuSeconds()
	for i := 0; i < probeTrips && err == nil; i++ {
		if _, err = p.conn.Write(p.msg); err == nil {
			_, err = io.ReadFull(p.conn, p.msg)
		}
	}
	parts[3] = cpuSeconds() - c
	if err != nil {
		return 0, err
	}
	return math.Pow(parts[0]*parts[1]*parts[2]*parts[3], 0.25), nil
}

// threadCPU is the calling thread's CPU time. getrusage's
// RUSAGE_THREAD counts the running thread only to its last scheduler
// tick; CLOCK_THREAD_CPUTIME_ID is exact.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}
