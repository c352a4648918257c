package main

import (
	"fmt"
	"math/rand"
	"strings"

	"fpgaflow/internal/circuits"
)

// design is one benchmark input: the source text handed to the flow and the
// benchmark's own reference model of what it computes (nil when the design
// is sequential, where only the flow's own verification applies).
type design struct {
	name   string
	source string
	ref    model
	// seed is the design's placement and activity seed (Options.Seed).
	seed int64
}

// Every design and its flow seed are fixed: slot k of a list is generated
// from its own generator seed, the way examples/netlists/gen_rand64.go
// fixes its seed. So every --seed compiles the same work with the same QoR,
// and the QoR sums can carry a tight bound. --seed orders each list, orders
// the farm's jobs and deals its tenants and repeats, and draws the oracle's
// test vectors.

// slot is the generator of list slot k: it draws the slot's netlist and
// then its flow seed.
func slot(k int) *rand.Rand { return rand.New(rand.NewSource(int64(1000 + k))) }

// shuffled puts a list in the --seed's order.
func shuffled(ds []design, seed int64) []design {
	rand.New(rand.NewSource(seed)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// routeMinWDesigns is the route-minw input list: small layered random BLIF
// netlists plus one pipelined design, entered as VHDL so the front end is
// exercised too. The designs are small (24-40 gates, 0.1-0.4 s each) so a
// run makes more than ten passes and a hundred compiles.
func routeMinWDesigns(seed int64, tiny bool) ([]design, error) {
	ladder := [][2]int{{1, 24}, {1, 32}, {1, 24}, {2, 8}, {1, 24}, {1, 32}, {1, 24}, {2, 8}, {1, 24}, {1, 32}}
	stages, width := 2, 8
	if tiny {
		ladder, stages, width = [][2]int{{2, 8}, {3, 8}}, 1, 4
	}
	var ds []design
	for k, sz := range ladder {
		rng := slot(k)
		name := fmt.Sprintf("rand%d_%dx%d", k, sz[0], sz[1])
		src := randLadder(rng, name, sz[0], sz[1])
		ref, err := parseBLIFModel(src)
		if err != nil {
			return nil, err
		}
		ds = append(ds, design{name: name, source: src, ref: ref, seed: placeSeed(rng)})
	}
	rng := slot(len(ladder))
	ds = append(ds, design{name: "pipe", source: pipelineVHDL(rng, "pipe", stages, width), seed: placeSeed(rng)})
	return shuffled(ds, seed), nil
}

// synthVerifyDesigns is the synth-verify input list: arithmetic and random
// logic from internal/circuits, each with a behavioural reference. Each
// takes 0.1-0.5 s, so a run makes more than ten passes and a hundred
// compiles.
func synthVerifyDesigns(seed int64, tiny bool) ([]design, error) {
	type gen struct {
		b   circuits.Benchmark
		ref model
	}
	gens := []gen{
		{circuits.ALU(2), aluModel(2)},
		{circuits.ALU(3), aluModel(3)},
		{circuits.ArrayMultiplier(5), multModel(5)},
		{circuits.CarrySelectAdder(12), adderModel(12, false)},
		{circuits.CarrySelectAdder(16), adderModel(16, false)},
		{circuits.RippleAdder(12), adderModel(12, true)},
		{circuits.RippleAdder(16), adderModel(16, true)},
		{circuits.MajorityTree(9), majorityModel(9)},
		{circuits.ParityTree(32), parityModel(32)},
	}
	random := [][2]int{{12, 60}, {10, 100}}
	if tiny {
		gens = []gen{{circuits.ALU(2), aluModel(2)}, {circuits.CarrySelectAdder(4), adderModel(4, false)}}
		random = [][2]int{{8, 20}}
	}
	ds := make([]design, 0, len(gens)+len(random))
	for k, g := range gens {
		ds = append(ds, design{name: g.b.Name, source: g.b.VHDL, ref: g.ref, seed: placeSeed(slot(k))})
	}
	for _, r := range random {
		rng := slot(len(ds))
		rl := circuits.RandomLogic(r[0], r[1], rng.Int63())
		ref, err := randomLogicModel(rl.VHDL, r[0])
		if err != nil {
			return nil, err
		}
		ds = append(ds, design{name: rl.Name, source: rl.VHDL, ref: ref, seed: placeSeed(rng)})
	}
	return shuffled(ds, seed), nil
}

// placeSeed draws a flow seed.
func placeSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<30) }

// farmDesigns is the farm's pool of small VHDL designs (15-250 ms each).
func farmDesigns(tiny bool) []design {
	if tiny {
		return []design{
			{name: "parity4", source: circuits.ParityTree(4).VHDL, ref: parityModel(4)},
			{name: "radd2", source: circuits.RippleAdder(2).VHDL, ref: adderModel(2, true)},
			{name: "count2", source: circuits.Counter(2).VHDL},
		}
	}
	return []design{
		{name: "crc8", source: circuits.CRC8().VHDL},
		{name: "lfsr8", source: circuits.LFSR(8).VHDL},
		{name: "count8", source: circuits.Counter(8).VHDL},
		{name: "parity16", source: circuits.ParityTree(16).VHDL, ref: parityModel(16)},
		{name: "gray6", source: circuits.GrayCounter(6).VHDL},
		{name: "radd8", source: circuits.RippleAdder(8).VHDL, ref: adderModel(8, true)},
		{name: "maj9", source: circuits.MajorityTree(9).VHDL, ref: majorityModel(9)},
	}
}

// randLadder builds a seeded layered random netlist the way
// examples/netlists/gen_rand64.go and gen_rand128.go build theirs: 16
// primary inputs feed `layers` layers of `perLayer` three-input gates with
// random non-constant truth tables, and 8 collector gates drive the
// outputs. Every gate's first fan-in walks the previous layer, so no gate
// is dead.
func randLadder(rng *rand.Rand, name string, layers, perLayer int) string {
	const inputs, outputs = 16, 8
	g := newBLIFGen(rng, name, inputs, outputs)
	prev := g.pool
	for l := 0; l < layers; l++ {
		var cur []string
		for i := 0; i < perLayer; i++ {
			out := fmt.Sprintf("n%d_%d", l, i)
			g.gate(g.pick([]string{prev[i%len(prev)]}, 3), out)
			cur = append(cur, out)
		}
		g.pool = append(g.pool, cur...)
		prev = cur
	}
	g.collect(prev, outputs)
	return g.String()
}

// blifGen accumulates a random BLIF netlist.
type blifGen struct {
	rng  *rand.Rand
	head strings.Builder
	body strings.Builder
	pool []string
}

func newBLIFGen(rng *rand.Rand, name string, inputs, outputs int) *blifGen {
	g := &blifGen{rng: rng}
	fmt.Fprintf(&g.head, ".model %s\n.inputs", name)
	for i := 0; i < inputs; i++ {
		s := fmt.Sprintf("i%d", i)
		g.pool = append(g.pool, s)
		g.head.WriteString(" " + s)
	}
	g.head.WriteString("\n.outputs")
	for i := 0; i < outputs; i++ {
		fmt.Fprintf(&g.head, " o%d", i)
	}
	g.head.WriteString("\n")
	return g
}

// gate emits one .names over the fan-ins with a random non-constant truth
// table (at least one minterm on, at least one off).
func (g *blifGen) gate(fanin []string, out string) {
	g.body.WriteString(".names " + strings.Join(fanin, " ") + " " + out + "\n")
	rows := 1 << len(fanin)
	mask := 1 + g.rng.Intn((1<<rows)-2)
	for m := 0; m < rows; m++ {
		if mask&(1<<m) == 0 {
			continue
		}
		for bit := len(fanin) - 1; bit >= 0; bit-- {
			g.body.WriteByte('0' + byte(m>>bit&1))
		}
		g.body.WriteString(" 1\n")
	}
}

// pick completes a fan-in list with distinct random pool signals, in pool
// order.
func (g *blifGen) pick(fanin []string, n int) []string {
	in := map[string]bool{}
	for _, s := range fanin {
		in[s] = true
	}
	for len(in) < n {
		in[g.pool[g.rng.Intn(len(g.pool))]] = true
	}
	out := make([]string, 0, n)
	for _, s := range g.pool {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}

// collect drives the outputs from gates whose fan-ins jointly cover the
// last layer.
func (g *blifGen) collect(last []string, outputs int) {
	for i := 0; i < outputs; i++ {
		fanin := []string{last[(2*i)%len(last)], last[(2*i+1)%len(last)]}
		g.gate(g.pick(fanin, 3), fmt.Sprintf("o%d", i))
	}
}

func (g *blifGen) String() string { return g.head.String() + g.body.String() + ".end\n" }

// pipelineVHDL is the pipelined design of gen_pipe48.go written as VHDL:
// 12 inputs feed `stages` pipeline stages of two `width`-wide levels of
// random three-input gates (each a sum of its on-set minterms), every stage
// closed by a full register bank on one clock.
func pipelineVHDL(rng *rand.Rand, name string, stages, width int) string {
	const inputs, levels, outputs = 12, 2, 6
	var sigs []string
	var body strings.Builder
	pool := make([]string, inputs)
	for i := range pool {
		pool[i] = fmt.Sprintf("i(%d)", i)
	}
	g := &blifGen{rng: rng, pool: pool}
	gate := func(fanin []string, out string) {
		rows := 1 << len(fanin)
		mask := 1 + rng.Intn((1<<rows)-2)
		var terms []string
		for m := 0; m < rows; m++ {
			if mask&(1<<m) == 0 {
				continue
			}
			lits := make([]string, len(fanin))
			for k := range fanin {
				lits[k] = fanin[k]
				if m>>(len(fanin)-1-k)&1 == 0 {
					lits[k] = "not " + fanin[k]
				}
			}
			terms = append(terms, "("+strings.Join(lits, " and ")+")")
		}
		fmt.Fprintf(&body, "  %s <= %s;\n", out, strings.Join(terms, " or "))
	}
	var regs strings.Builder
	prev := g.pool
	for st := 0; st < stages; st++ {
		for lv := 0; lv < levels; lv++ {
			var cur []string
			for k := 0; k < width; k++ {
				out := fmt.Sprintf("s%d_%d_%d", st, lv, k)
				gate(g.pick([]string{prev[k%len(prev)]}, 3), out)
				sigs = append(sigs, out)
				cur = append(cur, out)
			}
			g.pool = append(g.pool, cur...)
			prev = cur
		}
		var q []string
		for k, comb := range prev {
			reg := fmt.Sprintf("q%d_%d", st, k)
			fmt.Fprintf(&regs, "      %s <= %s;\n", reg, comb)
			sigs = append(sigs, reg)
			q = append(q, reg)
		}
		g.pool = append(g.pool, q...)
		prev = q
	}
	for k := 0; k < outputs; k++ {
		fanin := []string{prev[(2*k)%len(prev)], prev[(2*k+1)%len(prev)]}
		gate(g.pick(fanin, 3), fmt.Sprintf("o(%d)", k))
	}
	return fmt.Sprintf(`library ieee;
use ieee.std_logic_1164.all;
entity %[1]s is
  port (
    clk : in std_logic;
    i : in std_logic_vector(%[2]d downto 0);
    o : out std_logic_vector(%[3]d downto 0)
  );
end %[1]s;
architecture rtl of %[1]s is
  signal %[4]s : std_logic;
begin
%[5]s  process (clk)
  begin
    if rising_edge(clk) then
%[6]s    end if;
  end process;
end rtl;
`, name, inputs-1, outputs-1, strings.Join(sigs, ", "), body.String(), regs.String())
}
