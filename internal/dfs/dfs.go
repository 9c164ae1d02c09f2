// Package dfs is the HDFS stand-in: named files split into fixed-size blocks
// at line boundaries, each block replicated on a configurable number of
// cluster nodes. The engine uses the block list to derive input partitions
// (one task per block, like Hadoop input splits), the block locations to
// place tasks near their data, and the block sizes to charge read costs.
//
// Block contents are held in host memory; what HDFS contributes to the
// paper's runtimes is scan cost and locality, both of which the engine models
// from the metadata kept here.
package dfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"sparkscore/internal/rng"
)

// DefaultBlockSize is the classic HDFS block size.
const DefaultBlockSize = 128 << 20

// Block is one replicated chunk of a file, always ending on a line boundary
// (except possibly the final block).
type Block struct {
	Data      []byte
	Locations []int // node ids holding a replica
}

// File is an immutable sequence of blocks.
type File struct {
	Name   string
	Blocks []Block
	Size   int64
}

// FS is the namespace of one simulated HDFS instance. It is safe for
// concurrent use: running tasks read block locations while node failures
// rewrite them.
type FS struct {
	blockSize   int
	replication int
	nodes       int

	mu    sync.RWMutex
	files map[string]*File
	r     *rng.RNG
}

// New creates a file system spanning the given number of storage nodes.
// blockSize <= 0 selects DefaultBlockSize; replication <= 0 selects 3
// (capped at the node count).
func New(nodes, blockSize, replication int, seed uint64) (*FS, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("dfs: %d nodes", nodes)
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if replication <= 0 {
		replication = 3
	}
	if replication > nodes {
		replication = nodes
	}
	return &FS{
		blockSize:   blockSize,
		replication: replication,
		nodes:       nodes,
		files:       map[string]*File{},
		r:           rng.New(seed),
	}, nil
}

// Write stores data under name, splitting it into blocks at line boundaries
// and placing replicas on distinct nodes. Writing an existing name replaces
// the file.
func (fs *FS) Write(name string, data []byte) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("dfs: empty file name")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{Name: name, Size: int64(len(data))}
	for off := 0; off < len(data); {
		end := off + fs.blockSize
		if end >= len(data) {
			end = len(data)
		} else {
			// Extend to the next newline so a line never straddles blocks.
			if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += nl + 1
			} else {
				end = len(data)
			}
		}
		f.Blocks = append(f.Blocks, Block{
			Data:      data[off:end],
			Locations: fs.placeReplicas(),
		})
		off = end
	}
	if len(f.Blocks) == 0 {
		// Represent an empty file as a single empty block so readers still
		// get one (empty) partition.
		f.Blocks = append(f.Blocks, Block{Locations: fs.placeReplicas()})
	}
	fs.files[name] = f
	return f, nil
}

// Create opens name for writing, as Hadoop's FileSystem.create does: the
// writer buffers the file's text, and Close stores it with Write. Write keeps
// the slice it is handed, so Close hands it exactly the text: the buffer
// itself when its slack is at most an eighth of the text (data.WriteGenotypes
// grows its destination once to the text's size), else a copy of the text's
// size, so that a doubling buffer's slack dies with the buffer.
func (fs *FS) Create(name string) io.WriteCloser {
	return &fileWriter{fs: fs, name: name}
}

// fileWriter is the writer Create returns.
type fileWriter struct {
	bytes.Buffer
	fs   *FS
	name string
}

func (w *fileWriter) Close() error {
	text := w.Bytes()
	if cap(text)-len(text) > len(text)/8 {
		text = append(make([]byte, 0, len(text)), text...)
	} else {
		text = text[:len(text):len(text)]
	}
	_, err := w.fs.Write(w.name, text)
	return err
}

// WriteLocal stores data under name as a single unreplicated block pinned to
// the given node — the placement shuffle spill files want: written by the
// map task to its own machine's disk, served from there, and lost with the
// machine (DropNode leaves the block with no replica, so a later read is
// remote-or-gone, exactly a lost shuffle file). Unlike Write it never splits
// at line boundaries; spill runs are binary.
func (fs *FS) WriteLocal(name string, data []byte, node int) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("dfs: empty file name")
	}
	if node < 0 || node >= fs.nodes {
		return nil, fmt.Errorf("dfs: WriteLocal to node %d of %d", node, fs.nodes)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{Name: name, Size: int64(len(data))}
	f.Blocks = append(f.Blocks, Block{Data: data, Locations: []int{node}})
	fs.files[name] = f
	return f, nil
}

// placeReplicas picks replication distinct nodes, first one random (the
// "writer" node), the rest spread, mirroring HDFS's random placement for
// off-cluster writers.
func (fs *FS) placeReplicas() []int {
	perm := fs.r.Perm(fs.nodes)
	locs := make([]int, fs.replication)
	copy(locs, perm[:fs.replication])
	return locs
}

// Open returns the named file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	return f, nil
}

// Exists reports whether the named file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// Delete removes the named file.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("dfs: no such file %q", name)
	}
	delete(fs.files, name)
	return nil
}

// BlockLocations returns the node ids currently holding replicas of the
// file's block. Use this rather than reading Block.Locations directly when
// tasks may race with node failures: the returned slice is immutable
// (DropNode swaps in fresh slices, never edits in place).
func (fs *FS) BlockLocations(f *File, block int) []int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return f.Blocks[block].Locations
}

// DropNode removes the node from every block's replica set, as when a
// machine holding HDFS replicas is lost. Block contents survive (the
// simulation keeps them in host memory, standing in for HDFS re-replication
// from surviving copies), but locality is gone: a block with no remaining
// replica is remote to every reader.
func (fs *FS) DropNode(node int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		for i, blk := range f.Blocks {
			keep := make([]int, 0, len(blk.Locations))
			for _, n := range blk.Locations {
				if n != node {
					keep = append(keep, n)
				}
			}
			f.Blocks[i].Locations = keep
		}
	}
}

// ReadAll concatenates all blocks of the named file.
func (fs *FS) ReadAll(name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, f.Size)
	for _, b := range f.Blocks {
		out = append(out, b.Data...)
	}
	return out, nil
}
