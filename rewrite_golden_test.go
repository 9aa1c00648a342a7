package lancet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"lancet/internal/ir"
)

// rewriteGolden pins the rewritten Lancet and Tutel graphs over the
// model × cluster × batch grid of TestRewriteGolden. A refactor of the IR
// tables, the axis solver or the range rewrite must leave it unchanged;
// only an intentional change to the plans themselves may re-derive it.
const rewriteGolden = "2f3056fdf42d64c0"

// hashGraph folds every field a plan's consumers read into h: per
// instruction its op, name, operands, work, pipeline bookkeeping and
// partition axis, then every tensor's name, shape, type and kind.
func hashGraph(h interface{ Write([]byte) (int, error) }, g *ir.Graph) {
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putInts := func(xs []int) {
		putInt(int64(len(xs)))
		for _, x := range xs {
			putInt(int64(x))
		}
	}
	putInt(int64(len(g.Instrs)))
	for _, in := range g.Instrs {
		putInt(int64(in.Op))
		putInt(int64(len(in.Name)))
		h.Write([]byte(in.Name))
		putInts(in.Ins)
		putInts(in.Outs)
		putInt(int64(math.Float64bits(in.FLOPs)))
		putInt(in.Bytes)
		putInt(int64(in.Group))
		putInt(int64(in.PartIdx))
		putInt(int64(in.NumParts))
		putInt(int64(in.SrcID))
		putInt(int64(in.PartAxis))
	}
	putInt(int64(len(g.Tensors)))
	for _, t := range g.Tensors {
		putInt(int64(len(t.Name)))
		h.Write([]byte(t.Name))
		putInts(t.Shape)
		putInt(int64(t.DType))
		putInt(int64(t.Kind))
	}
}

// TestRewriteGolden hashes the rewritten graph of a Lancet plan and of the
// best Tutel plan for every point of a model × cluster × batch grid (Switch
// gates for the GPT-2 models, Batch Prioritized Routing for ViT-S, so both
// GatePartialBatch settings reach the axis solver) and compares the digest
// with rewriteGolden.
func TestRewriteGolden(t *testing.T) {
	h := fnv.New64a()
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, cl := range []struct {
			gpu  string
			gpus int
		}{{"V100", 16}, {"A100", 32}} {
			for _, batch := range []int{0, 8} {
				cfg, err := ParseModel(m, batch)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := NewSession(cfg, MustCluster(cl.gpu, cl.gpus))
				if err != nil {
					t.Fatal(err)
				}
				lp, err := sess.Lancet(Options{})
				if err != nil {
					t.Fatalf("%s/%s%d/b%d: lancet: %v", m, cl.gpu, cl.gpus, batch, err)
				}
				tp, err := sess.Baseline(FrameworkTutel)
				if err != nil {
					t.Fatalf("%s/%s%d/b%d: tutel: %v", m, cl.gpu, cl.gpus, batch, err)
				}
				fmt.Fprintf(h, "%s|%s|%d|%d|%d|", m, cl.gpu, cl.gpus, batch, tp.TutelDegree)
				hashGraph(h, lp.Graph)
				hashGraph(h, tp.Graph)
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != rewriteGolden {
		t.Fatalf("rewritten graph digest %s, golden %s", got, rewriteGolden)
	}
}
