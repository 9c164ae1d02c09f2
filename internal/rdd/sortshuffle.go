// External shuffle (the role of Spark's SortShuffleManager). Map tasks append
// pairs to a buffer whose growth is charged to the memory manager; when an
// acquisition is denied the buffer is grouped by reduce partition, keeping
// arrival order, and written to the DFS as one run file of length-prefixed
// frames on the map task's own node, with a per-partition offset index kept
// on the map output. A map task that never spills registers plain resident
// buckets. Reduce tasks read each map output's runs back to back.
//
// Reproducibility contract. Shuffle results are bitwise identical whether or
// not memory pressure forced spilling, and equal to a sequential fold of the
// input in (map partition, arrival) order: per map output first, then across
// map outputs in partition order, for ReduceByKey; in one flat sequence for
// GroupByKey and Join (TestSortShuffleMatchesSequentialFold writes both out).
// Float addition is not bitwise-associative, so two rules follow:
//
//   - Runs carry raw pairs, never partial aggregates; the reduce side
//     replays the map-side combine per map output, then folds the per-output
//     results — the exact fold tree of an unspilled output.
//   - Nothing is sorted. A run holds a contiguous range of arrivals and a
//     later run holds later ones, so a partition's frames read in run order
//     are already the arrival order every downstream fold depends on; a key
//     order inside a frame would have no reader, because raw pairs cannot be
//     merged by key without changing that fold.

package rdd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"iter"
)

// spillRec is one shuffled pair inside a run file; a frame holds them in
// arrival order. Fields are exported for gob.
type spillRec[K comparable, V any] struct {
	K K
	V V
}

// shuffleRun is one spilled run: a partition-grouped file on the DFS plus the
// in-memory index locating each reduce partition's frame.
type shuffleRun struct {
	file  string
	offs  []int64 // payload offset per reduce partition
	lens  []int64 // payload length per reduce partition (0 = empty)
	elems []int   // pair count per reduce partition
}

// spillEvery is how many appended pairs the buffer admits between memory
// acquisitions. Small enough that tiny scaled-down executor memories still
// see multiple grants before denial, large enough to keep manager lock
// traffic negligible.
const spillEvery = 64

// sortBuffer buffers one map task's shuffle output in arrival order,
// spilling a run when the memory manager denies growth.
type sortBuffer[K comparable, V any] struct {
	tc           *taskContext
	sd           *shuffleDep
	mapPart      int
	bytesPerElem int64

	pairs    []KV[K, V]
	reserved int64 // execution bytes granted for the current buffer
	runs     []*shuffleRun
}

func newSortBuffer[K comparable, V any](tc *taskContext, sd *shuffleDep, mapPart int, bytesPerElem int64) *sortBuffer[K, V] {
	return &sortBuffer[K, V]{tc: tc, sd: sd, mapPart: mapPart, bytesPerElem: bytesPerElem}
}

func (b *sortBuffer[K, V]) add(kv KV[K, V]) {
	b.pairs = append(b.pairs, kv)
	if len(b.pairs)%spillEvery == 0 {
		b.ensure()
	}
}

// ensure grows the buffer's execution-memory grant to cover its contents,
// spilling when the manager says no. Requests are exact deltas, so the
// grant—and the denial point—is a pure function of how many pairs arrived.
func (b *sortBuffer[K, V]) ensure() {
	need := int64(len(b.pairs))*b.bytesPerElem - b.reserved
	if need <= 0 {
		return
	}
	if b.tc.acquireExecution(need, acqSpill) {
		b.reserved += need
		return
	}
	b.spill()
}

// spill groups the buffered pairs by reduce partition in arrival order,
// writes them as one run file of length-prefixed frames on the task's node,
// and releases the buffer's memory grant.
func (b *sortBuffer[K, V]) spill() {
	n := len(b.pairs)
	if n == 0 {
		return
	}
	tc, sd := b.tc, b.sd
	parts := sd.parts
	b.tc.noteShuffleBuffer(int64(n) * b.bytesPerElem)

	frames := make([][]spillRec[K, V], parts)
	for _, kv := range b.pairs {
		p := hashPartition(kv.K, parts)
		frames[p] = append(frames[p], spillRec[K, V](kv))
	}

	run := &shuffleRun{
		offs:  make([]int64, parts),
		lens:  make([]int64, parts),
		elems: make([]int, parts),
	}
	var file bytes.Buffer
	for p, recs := range frames {
		run.elems[p] = len(recs)
		payload := encodeRunFrame(recs)
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(len(payload)))
		file.Write(hdr[:])
		run.offs[p] = int64(file.Len())
		run.lens[p] = int64(len(payload))
		file.Write(payload)
	}

	runIdx := len(b.runs)
	// Round and attempt in the name keep recomputed outputs from colliding
	// with files a lost node's cleanup never saw.
	run.file = fmt.Sprintf("_shuffle/s%d/m%d/run%d.r%da%d", sd.id, b.mapPart, runIdx, tc.round, tc.attempt)
	if _, err := tc.ctx.fs.WriteLocal(run.file, file.Bytes(), tc.node()); err != nil {
		panic(fmt.Sprintf("rdd: writing spill run %s: %v", run.file, err))
	}
	b.runs = append(b.runs, run)
	tc.spilledBytes += int64(file.Len())
	tc.spillCount++
	tc.emit(&ShuffleSpill{Job: tc.job, Stage: tc.stage, Round: tc.round, Part: tc.part, Attempt: tc.attempt,
		Executor: tc.executor, Shuffle: sd.id, Run: runIdx, Bytes: int64(file.Len()), Elems: n})

	tc.releaseExecution(b.reserved)
	b.reserved = 0
	b.pairs = nil
}

// encodeRunFrame gob-encodes one partition's records. An unencodable element
// type is a programming error worth a clear panic.
func encodeRunFrame[K comparable, V any](recs []spillRec[K, V]) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		panic(fmt.Sprintf("rdd: shuffle spill cannot gob-encode %T: %v", recs, err))
	}
	return buf.Bytes()
}

// runSortMap drives one map task of a shuffle dependency: stream the parent
// cursor through a spillable buffer, then register either resident buckets
// (no spill — combine applies) or the spilled runs plus a final run holding
// the tail.
func runSortMap[K comparable, V any](ctx *Context, tc *taskContext, sd *shuffleDep, mapPart int,
	in iter.Seq[KV[K, V]], bytesPerElem int64, combine func(V, V) V) {
	buf := newSortBuffer[K, V](tc, sd, mapPart, bytesPerElem)
	for kv := range in {
		buf.add(kv)
	}
	buf.ensure()
	parts := sd.parts
	if len(buf.runs) == 0 {
		tc.noteShuffleBuffer(int64(len(buf.pairs)) * bytesPerElem)
		registerBuckets(ctx, tc, sd, mapPart, mapBuckets(buf.pairs, parts, combine), bytesPerElem)
		return
	}
	buf.spill()
	bytes := make([]int64, parts)
	var total int64
	for _, r := range buf.runs {
		for p := 0; p < parts; p++ {
			bytes[p] += r.lens[p]
			total += r.lens[p]
		}
	}
	tc.noteMaterialized(total)
	ctx.shuffle.write(sd.id, mapPart, sd.parent.parts, tc.node(), tc.executor, nil, bytes, buf.runs)
}

// mapBuckets splits an unspilled map task's pairs into its reduce buckets,
// combined per key when combine is set (Spark's map-side combine). One
// combining map serves the whole task: a key lands in exactly one bucket, so
// splitting the combined pairs in first-insertion order leaves each bucket's
// keys in their first-insertion order, each folded in arrival order.
func mapBuckets[K comparable, V any](pairs []KV[K, V], parts int, combine func(V, V) V) [][]KV[K, V] {
	if combine != nil {
		combined := newOrderedMap[K, V]()
		for _, kv := range pairs {
			combined.combine(kv.K, kv.V, combine)
		}
		pairs = combined.pairs()
	}
	return splitBuckets(pairs, parts)
}

// splitBuckets distributes pairs over parts reduce buckets by key hash,
// keeping their order within each bucket. The buckets share one backing
// array, each capped at its own length.
func splitBuckets[K comparable, V any](pairs []KV[K, V], parts int) [][]KV[K, V] {
	dest := make([]int32, len(pairs))
	starts := make([]int, parts+1)
	for i, kv := range pairs {
		p := hashPartition(kv.K, parts)
		dest[i] = int32(p)
		starts[p+1]++
	}
	for p := 1; p <= parts; p++ {
		starts[p] += starts[p-1]
	}
	backing := make([]KV[K, V], len(pairs))
	buckets := make([][]KV[K, V], parts)
	for p := range buckets {
		buckets[p] = backing[starts[p]:starts[p+1]:starts[p+1]]
	}
	// starts[p] now serves as bucket p's write cursor.
	for i, kv := range pairs {
		backing[starts[dest[i]]] = kv
		starts[dest[i]]++
	}
	return buckets
}

// decodeFrameBytes decodes one reduce partition's frame out of a run file's
// raw bytes: bounds-check the index against the file, then gob-decode. It
// returns an error — never panics — on truncated or corrupt input, however
// mangled; the fuzz target FuzzDecodeFrameBytes pins that.
func decodeFrameBytes[K comparable, V any](raw []byte, off, length int64) ([]spillRec[K, V], error) {
	if off < 0 || length < 0 || off > int64(len(raw)) || length > int64(len(raw))-off {
		return nil, fmt.Errorf("frame [%d:+%d] out of bounds of %d-byte run file", off, length, len(raw))
	}
	var recs []spillRec[K, V]
	if err := gob.NewDecoder(bytes.NewReader(raw[off : off+length])).Decode(&recs); err != nil {
		return nil, fmt.Errorf("decoding frame [%d:+%d]: %w", off, length, err)
	}
	return recs, nil
}

// decodeRunFrame reads one reduce partition's records out of a run file. A
// missing, unreadable, truncated, or corrupt file means the map output is
// gone — a fetch failure, exactly as when a resident output disappears —
// rather than a panic: on a real cluster a shuffle file can be half-written
// by a dying executor, and the recovery answer is recomputation, not a crash.
func decodeRunFrame[K comparable, V any](tc *taskContext, shuffle, mapPart int, run *shuffleRun, reducePart int) []spillRec[K, V] {
	if run.lens[reducePart] == 0 && run.elems[reducePart] == 0 {
		return nil
	}
	fail := func() {
		tc.emit(&FetchFailure{Job: tc.job, Stage: tc.stage, Round: tc.round, Part: tc.part,
			Attempt: tc.attempt, Shuffle: shuffle, MapPart: mapPart})
		panic(&fetchFailedError{shuffle: shuffle, mapPart: mapPart})
	}
	raw, err := tc.ctx.fs.ReadAll(run.file)
	if err != nil {
		fail()
	}
	recs, err := decodeFrameBytes[K, V](raw, run.offs[reducePart], run.lens[reducePart])
	if err != nil {
		fail()
	}
	return recs
}

// readRuns streams one map output's spilled pairs for the reduce partition
// in arrival order: run 0's frame, then run 1's, and so on.
func readRuns[K comparable, V any](tc *taskContext, shuffle, mapPart int, runs []*shuffleRun, reducePart int) iter.Seq[KV[K, V]] {
	return func(yield func(KV[K, V]) bool) {
		for _, run := range runs {
			for _, rec := range decodeRunFrame[K, V](tc, shuffle, mapPart, run, reducePart) {
				if !yield(KV[K, V](rec)) {
					return
				}
			}
		}
	}
}

// shuffleBucketSeqs fetches the reduce partition from every map output of the
// shuffle and yields one pair sequence per map output, in map-partition
// order, with whether that output spilled. A resident output streams its
// bucket as-is; a spilled output is read back by readRuns. Either way the
// inner sequence is the map task's arrival order, the order every
// reduce-side fold is defined over.
func shuffleBucketSeqs[K comparable, V any](ctx *Context, tc *taskContext, sd *shuffleDep, reducePart, mapParts int) iter.Seq2[iter.Seq[KV[K, V]], bool] {
	outs := ctx.shuffle.fetch(tc, sd.id, reducePart, mapParts)
	return func(yield func(iter.Seq[KV[K, V]], bool) bool) {
		for m, mo := range outs {
			var seq iter.Seq[KV[K, V]]
			if mo.runs == nil {
				bucket := mo.buckets[reducePart].([]KV[K, V])
				seq = func(yield func(KV[K, V]) bool) {
					for _, kv := range bucket {
						if !yield(kv) {
							return
						}
					}
				}
			} else {
				seq = readRuns[K, V](tc, sd.id, m, mo.runs, reducePart)
			}
			if !yield(seq, mo.runs != nil) {
				return
			}
		}
	}
}
