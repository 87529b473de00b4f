package store

// Disk spill tier: a content-addressed store of serialized cache
// entries, one checksummed file per entry under two-level fan-out
// directories (ab/cdef...). Writes are asynchronous — Put enqueues on a
// bounded write-behind queue drained by one goroutine; when the queue
// overflows, the oldest pending write is dropped (and counted), never
// the caller blocked — and each file lands atomically via temp +
// rename. Reads verify the per-entry checksum and key; any damage —
// truncation, corruption, a key collision, a stray file — deletes the
// file and reads as a miss, because a cache is always allowed to
// forget. A byte-budget janitor evicts the lowest cost-per-byte
// entries after each landed write, mirroring the memory tier's
// cost-aware policy. The package docs give the ordering and crash
// contract.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"valleymap/internal/fault"
)

// spillMagic brands one spill entry file; the trailing digit is the
// format version.
var spillMagic = [8]byte{'V', 'S', 'P', 'I', 'L', 'L', '0', '1'}

// DiskOptions configures a Disk. All callbacks may be nil and are
// invoked outside the store's lock; they must not call back into the
// store.
type DiskOptions struct {
	// Dir is the spill directory, created if missing.
	Dir string
	// MaxBytes bounds the landed entry bytes; the janitor evicts the
	// lowest cost-per-byte entries to stay under it. <= 0 disables the
	// budget.
	MaxBytes int64
	// queueLen bounds the write-behind queue (0 = 256 pending writes);
	// only tests shrink it.
	queueLen int
	// OnWrite observes each landed entry file.
	OnWrite func()
	// OnWriteDrop observes pending writes discarded on queue overflow.
	OnWriteDrop func()
	// OnEvict observes janitor evictions.
	OnEvict func()
	// OnError observes spill damage: failed writes and corrupt or
	// unreadable entry files (each treated as a miss, never an error).
	OnError func()
}

type diskMeta struct {
	bytes int64 // whole entry file size
	cost  float64
}

type spillReq struct {
	key     string
	payload []byte
	cost    float64
}

// Disk is the disk-backed spill tier. All methods are safe for
// concurrent use.
type Disk struct {
	opt DiskOptions

	mu      sync.Mutex
	cond    *sync.Cond
	index   map[string]diskMeta  // landed entries
	pending map[string]*spillReq // queued or in-flight writes
	queue   []*spillReq
	writing bool // drain goroutine holds an entry taken off the queue
	bytes   int64
	closed  bool

	done chan struct{}
}

// OpenDisk opens (creating if needed) a spill directory and rebuilds
// the in-memory index by scanning it: every entry file is read and
// fully validated, and damaged files are deleted on the spot. The
// write-behind drain goroutine starts immediately; callers must Close.
func OpenDisk(opt DiskOptions) (*Disk, error) {
	if opt.Dir == "" {
		return nil, errors.New("store: spill dir must not be empty")
	}
	if opt.queueLen <= 0 {
		opt.queueLen = 256
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating spill dir: %w", err)
	}
	d := &Disk{
		opt:     opt,
		index:   map[string]diskMeta{},
		pending: map[string]*spillReq{},
		done:    make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	if err := d.scan(); err != nil {
		return nil, err
	}
	go d.drain()
	return d, nil
}

// entryPath fans the key's digest out over two directory levels so no
// single directory accumulates millions of entries.
func (d *Disk) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	hexsum := hex.EncodeToString(sum[:])
	return filepath.Join(d.opt.Dir, hexsum[:2], hexsum[2:])
}

// scan rebuilds the index from the fan-out directories. Anything that
// fails validation is removed; scan itself only fails on I/O errors
// listing the directories.
func (d *Disk) scan() error {
	subs, err := os.ReadDir(d.opt.Dir)
	if err != nil {
		return fmt.Errorf("store: scanning spill dir: %w", err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.opt.Dir, sub.Name()))
		if err != nil {
			return fmt.Errorf("store: scanning spill dir: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(d.opt.Dir, sub.Name(), f.Name())
			key, _, cost, err := readEntryFile(path)
			if err != nil {
				os.Remove(path)
				d.observe(d.opt.OnError)
				continue
			}
			st, err := os.Stat(path)
			if err != nil {
				continue
			}
			d.index[key] = diskMeta{bytes: st.Size(), cost: cost}
			d.bytes += st.Size()
		}
	}
	return nil
}

// Put enqueues one entry for asynchronous spilling. The payload is
// owned by the store from this point and must not be mutated by the
// caller. When the queue is full the oldest pending write is dropped
// (counted via OnWriteDrop) — the newest spill is the one most likely
// to be re-read. Put never blocks on I/O.
func (d *Disk) Put(key string, payload []byte, cost float64) {
	if cost < 0 || math.IsNaN(cost) {
		cost = 0
	}
	req := &spillReq{key: key, payload: payload, cost: cost}
	var dropped bool
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if len(d.queue) >= d.opt.queueLen {
		old := d.queue[0]
		d.queue = d.queue[1:]
		if d.pending[old.key] == old {
			delete(d.pending, old.key)
		}
		dropped = true
	}
	d.queue = append(d.queue, req)
	d.pending[key] = req
	d.cond.Broadcast()
	d.mu.Unlock()
	if dropped {
		d.observe(d.opt.OnWriteDrop)
	}
}

// Get returns the stored payload and cost for key. Pending writes are
// served straight from the queue (write-behind ordering: an accepted
// Put is immediately readable); landed entries are read from disk and
// fully verified, with any damage deleting the file and reading as a
// miss.
func (d *Disk) Get(key string) ([]byte, float64, bool) {
	d.mu.Lock()
	if req, ok := d.pending[key]; ok {
		payload, cost := req.payload, req.cost
		d.mu.Unlock()
		return payload, cost, true
	}
	_, ok := d.index[key]
	d.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	if err := fault.Err(fault.SpillRead); err != nil {
		d.observe(d.opt.OnError)
		return nil, 0, false
	}
	path := d.entryPath(key)
	gotKey, payload, cost, err := readEntryFile(path)
	if err == nil && gotKey != key {
		// A digest collision or a foreign file at this path: neither is
		// our entry.
		err = fmt.Errorf("store: spill entry holds key %q, want %q", gotKey, key)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			os.Remove(path)
			d.observe(d.opt.OnError)
		}
		d.mu.Lock()
		if meta, ok := d.index[key]; ok {
			d.bytes -= meta.bytes
			delete(d.index, key)
		}
		d.mu.Unlock()
		return nil, 0, false
	}
	return payload, cost, true
}

// Contains reports whether key is resident (pending or landed) without
// touching the disk.
func (d *Disk) Contains(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pending[key]; ok {
		return true
	}
	_, ok := d.index[key]
	return ok
}

// Remove deletes key's entry (landed and/or pending), if any.
func (d *Disk) Remove(key string) {
	d.mu.Lock()
	if req, ok := d.pending[key]; ok {
		delete(d.pending, key)
		for i, q := range d.queue {
			if q == req {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
	}
	meta, landed := d.index[key]
	if landed {
		d.bytes -= meta.bytes
		delete(d.index, key)
	}
	d.mu.Unlock()
	if landed {
		os.Remove(d.entryPath(key))
	}
}

// Len reports landed entries (pending writes excluded).
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Bytes reports landed entry bytes (pending writes excluded).
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Flush blocks until every currently pending write has landed (or been
// dropped). New Puts racing a Flush may or may not be waited for.
func (d *Disk) Flush() {
	d.mu.Lock()
	for len(d.queue) > 0 || d.writing {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Close drains the write-behind queue — every accepted Put lands or is
// already counted dropped — and stops the drain goroutine. Further
// Puts are ignored. Close is idempotent.
func (d *Disk) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
}

// drain is the write-behind goroutine: one pending entry at a time,
// then the byte-budget janitor. It exits only when closed AND empty,
// so Close always drains.
func (d *Disk) drain() {
	defer close(d.done)
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.queue) == 0 && d.closed {
			d.mu.Unlock()
			return
		}
		req := d.queue[0]
		d.queue = d.queue[1:]
		d.writing = true
		d.mu.Unlock()

		size, err := d.writeEntry(req)

		d.mu.Lock()
		d.writing = false
		// A newer Put for the same key may have superseded this one
		// while it was being written; only clear pending if it is still
		// ours, and never index a superseded write (its file will be
		// overwritten by the newer entry momentarily).
		current := d.pending[req.key] == req
		if current {
			delete(d.pending, req.key)
			if err == nil {
				if old, ok := d.index[req.key]; ok {
					d.bytes -= old.bytes
				}
				d.index[req.key] = diskMeta{bytes: size, cost: req.cost}
				d.bytes += size
			}
		}
		victims := d.janitorLocked()
		d.cond.Broadcast()
		d.mu.Unlock()

		if err != nil {
			d.observe(d.opt.OnError)
		} else if current {
			d.observe(d.opt.OnWrite)
		}
		for _, key := range victims {
			os.Remove(d.entryPath(key))
			d.observe(d.opt.OnEvict)
		}
	}
}

// janitorLocked picks eviction victims until landed bytes fit the
// budget, removing them from the index; the caller deletes the files
// outside the lock. Victim choice mirrors the memory tier: lowest
// Cost/Bytes density first.
func (d *Disk) janitorLocked() []string {
	if d.opt.MaxBytes <= 0 {
		return nil
	}
	var victims []string
	for d.bytes > d.opt.MaxBytes && len(d.index) > 0 {
		victimKey := ""
		best := math.Inf(1)
		for key, meta := range d.index {
			if density := meta.cost / float64(meta.bytes); density < best {
				victimKey, best = key, density
			}
		}
		meta := d.index[victimKey]
		d.bytes -= meta.bytes
		delete(d.index, victimKey)
		victims = append(victims, victimKey)
	}
	return victims
}

func (d *Disk) observe(fn func()) {
	if fn != nil {
		fn()
	}
}

// writeEntry lands one entry file atomically (temp + rename in the
// fan-out directory). The SpillWrite fault seam fails the write before
// any bytes land; SpillTorn truncates the framed bytes but lets the
// rename publish the torn file — caught later by Get's checksum.
func (d *Disk) writeEntry(req *spillReq) (int64, error) {
	if err := fault.Err(fault.SpillWrite); err != nil {
		return 0, err
	}
	framed := encodeEntry(req.key, req.payload, req.cost)
	out := fault.Torn(fault.SpillTorn, framed)
	path := d.entryPath(req.key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, ".spill*")
	if err != nil {
		return 0, err
	}
	_, werr := tmp.Write(out)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return 0, errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return int64(len(out)), nil
}

// Entry file layout (integers little-endian):
//
//	magic   [8]byte  "VSPILL01"
//	keyLen  uint32
//	payLen  uint64
//	cost    float64 bits
//	key     []byte
//	payload []byte
//	sum     [32]byte SHA-256 of everything above
const spillHeaderLen = 8 + 4 + 8 + 8

func encodeEntry(key string, payload []byte, cost float64) []byte {
	buf := make([]byte, 0, spillHeaderLen+len(key)+len(payload)+sha256.Size)
	buf = append(buf, spillMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cost))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// readEntryFile reads and fully validates one entry file. Every
// failure mode is an error; callers treat any error (other than
// fs.ErrNotExist) as damage.
func readEntryFile(path string) (key string, payload []byte, cost float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, 0, err
	}
	if len(data) < spillHeaderLen+sha256.Size {
		return "", nil, 0, errors.New("store: spill entry truncated")
	}
	if !bytes.Equal(data[:8], spillMagic[:]) {
		return "", nil, 0, fmt.Errorf("store: spill entry magic %q is not %q", data[:8], spillMagic[:])
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	payLen := binary.LittleEndian.Uint64(data[12:20])
	cost = math.Float64frombits(binary.LittleEndian.Uint64(data[20:28]))
	body := uint64(len(data) - spillHeaderLen - sha256.Size)
	if uint64(keyLen)+payLen != body {
		return "", nil, 0, fmt.Errorf("store: spill entry lengths %d+%d do not match %d body bytes", keyLen, payLen, body)
	}
	sumStart := spillHeaderLen + int(keyLen) + int(payLen)
	sum := sha256.Sum256(data[:sumStart])
	if !bytes.Equal(sum[:], data[sumStart:]) {
		return "", nil, 0, errors.New("store: spill entry checksum mismatch")
	}
	key = string(data[spillHeaderLen : spillHeaderLen+int(keyLen)])
	payload = data[spillHeaderLen+int(keyLen) : sumStart]
	if math.IsNaN(cost) || cost < 0 {
		cost = 0
	}
	return key, payload, cost, nil
}
