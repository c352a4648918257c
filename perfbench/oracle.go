package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
)

// The correctness oracle is independent of the compiler under test: it
// evaluates reference models (the benchmark's own BLIF text, or a
// behavioural Go function for the VHDL designs) and the netlist extracted
// from each bitstream with the small cover evaluator below, never with
// internal/sim. Signals are evaluated 64 vectors at a time, one vector per
// bit of a uint64 word.

// model computes a combinational design's outputs for 64 input vectors at
// once: in maps every primary input name to its word of vector bits.
type model interface {
	inputs() []string
	eval(in map[string]uint64) (map[string]uint64, error)
}

// blifModel is a parsed combinational BLIF netlist in topological order.
type blifModel struct {
	ins, outs []string
	gates     []blifGate
}

type blifGate struct {
	out    string
	fanin  []string
	cubes  []string // each of len(fanin), over '0', '1', '-'
	onset  bool     // cubes list the on-set (output column '1')
	hasOut bool     // at least one cube row was seen
}

// parseBLIFModel reads .model/.inputs/.outputs/.names/.end; a .latch or any
// other construct makes the design non-combinational for this oracle.
func parseBLIFModel(text string) (*blifModel, error) {
	m := &blifModel{}
	var cur *blifGate
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	pending := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, line := range lines {
		f := strings.Fields(line)
		switch {
		case f[0] == ".model" || f[0] == ".end":
			cur = nil
		case f[0] == ".inputs":
			m.ins = append(m.ins, f[1:]...)
		case f[0] == ".outputs":
			m.outs = append(m.outs, f[1:]...)
		case f[0] == ".names":
			if len(f) < 2 {
				return nil, fmt.Errorf("oracle: .names without an output")
			}
			m.gates = append(m.gates, blifGate{out: f[len(f)-1], fanin: f[1 : len(f)-1]})
			cur = &m.gates[len(m.gates)-1]
		case strings.HasPrefix(f[0], "."):
			return nil, fmt.Errorf("oracle: %s is not combinational", f[0])
		default:
			if cur == nil {
				return nil, fmt.Errorf("oracle: cover row %q outside .names", line)
			}
			cube, val := "", f[0]
			if len(cur.fanin) > 0 {
				if len(f) != 2 {
					return nil, fmt.Errorf("oracle: bad cover row %q for %s", line, cur.out)
				}
				cube, val = f[0], f[1]
			}
			if len(cube) != len(cur.fanin) || (val != "0" && val != "1") {
				return nil, fmt.Errorf("oracle: bad cover row %q for %s", line, cur.out)
			}
			on := val == "1"
			if cur.hasOut && cur.onset != on {
				return nil, fmt.Errorf("oracle: %s mixes on-set and off-set rows", cur.out)
			}
			cur.onset, cur.hasOut = on, true
			cur.cubes = append(cur.cubes, cube)
		}
	}
	return m, m.order()
}

// order sorts the gates topologically so eval is one forward sweep.
func (m *blifModel) order() error {
	byOut := make(map[string]int, len(m.gates))
	for i, g := range m.gates {
		if _, dup := byOut[g.out]; dup {
			return fmt.Errorf("oracle: %s has two drivers", g.out)
		}
		byOut[g.out] = i
	}
	state := make([]byte, len(m.gates)) // 0 new, 1 on stack, 2 done
	sorted := make([]blifGate, 0, len(m.gates))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("oracle: combinational loop through %s", m.gates[i].out)
		case 2:
			return nil
		}
		state[i] = 1
		for _, in := range m.gates[i].fanin {
			if j, ok := byOut[in]; ok {
				if err := visit(j); err != nil {
					return err
				}
			}
		}
		state[i] = 2
		sorted = append(sorted, m.gates[i])
		return nil
	}
	for i := range m.gates {
		if err := visit(i); err != nil {
			return err
		}
	}
	m.gates = sorted
	return nil
}

func (m *blifModel) inputs() []string { return m.ins }

func (m *blifModel) eval(in map[string]uint64) (map[string]uint64, error) {
	val := make(map[string]uint64, len(m.ins)+len(m.gates))
	for _, name := range m.ins {
		w, ok := in[name]
		if !ok {
			return nil, fmt.Errorf("oracle: no value for input %s", name)
		}
		val[name] = w
	}
	for _, g := range m.gates {
		var cover uint64 // an empty cover is constant 0
		for _, cube := range g.cubes {
			term := ^uint64(0)
			for k, c := range cube {
				x, ok := val[g.fanin[k]]
				if !ok {
					return nil, fmt.Errorf("oracle: %s reads undriven %s", g.out, g.fanin[k])
				}
				switch c {
				case '1':
					term &= x
				case '0':
					term &^= x
				}
			}
			cover |= term
		}
		if g.hasOut && !g.onset {
			cover = ^cover
		}
		val[g.out] = cover
	}
	out := make(map[string]uint64, len(m.outs))
	for _, name := range m.outs {
		w, ok := val[name]
		if !ok {
			return nil, fmt.Errorf("oracle: output %s is undriven", name)
		}
		out[name] = w
	}
	return out, nil
}

// funcModel is a behavioural reference evaluated one vector at a time.
type funcModel struct {
	ins []string
	fn  func(bit func(string) uint64) map[string]uint64
}

func (m *funcModel) inputs() []string { return m.ins }

func (m *funcModel) eval(in map[string]uint64) (map[string]uint64, error) {
	out := map[string]uint64{}
	for lane := 0; lane < 64; lane++ {
		bit := func(name string) uint64 { return in[name] >> lane & 1 }
		for name, v := range m.fn(bit) {
			out[name] |= (v & 1) << lane
		}
	}
	return out, nil
}

// vec names the bits of a VHDL std_logic_vector port as the flow does.
func vec(name string, w int) []string {
	s := make([]string, w)
	for i := range s {
		s[i] = fmt.Sprintf("%s[%d]", name, i)
	}
	return s
}

// word packs a port's bits (LSB first) into an integer.
func word(bit func(string) uint64, names []string) uint64 {
	var v uint64
	for i, n := range names {
		v |= bit(n) << i
	}
	return v
}

// unpack spreads v over the named output bits.
func unpack(out map[string]uint64, names []string, v uint64) {
	for i, n := range names {
		out[n] = v >> i & 1
	}
}

func concat(parts ...[]string) []string {
	var s []string
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

// adderModel is circuits.RippleAdder (withCin) or circuits.CarrySelectAdder:
// {cout, s} = a + b (+ cin).
func adderModel(w int, withCin bool) model {
	a, b, s := vec("a", w), vec("b", w), vec("s", w)
	ins := concat(a, b)
	if withCin {
		ins = append(ins, "cin")
	}
	return &funcModel{ins: ins, fn: func(bit func(string) uint64) map[string]uint64 {
		sum := word(bit, a) + word(bit, b)
		if withCin {
			sum += bit("cin")
		}
		out := map[string]uint64{"cout": sum >> w}
		unpack(out, s, sum)
		return out
	}}
}

// multModel is circuits.ArrayMultiplier: p = a * b.
func multModel(w int) model {
	a, b, p := vec("a", w), vec("b", w), vec("p", 2*w)
	return &funcModel{ins: concat(a, b), fn: func(bit func(string) uint64) map[string]uint64 {
		out := map[string]uint64{}
		unpack(out, p, word(bit, a)*word(bit, b))
		return out
	}}
}

// aluModel is circuits.ALU: eight operations on a 3-bit opcode, plus a
// zero flag.
func aluModel(w int) model {
	op, a, b, y := vec("op", 3), vec("a", w), vec("b", w), vec("y", w)
	mask := uint64(1)<<w - 1
	return &funcModel{ins: concat(op, a, b), fn: func(bit func(string) uint64) map[string]uint64 {
		x, z := word(bit, a), word(bit, b)
		var r uint64
		switch word(bit, op) {
		case 0:
			r = x + z
		case 1:
			r = x - z
		case 2:
			r = x & z
		case 3:
			r = x | z
		case 4:
			r = x ^ z
		case 5:
			r = ^x
		case 6:
			r = 0
		default:
			r = z
		}
		r &= mask
		out := map[string]uint64{"zero": 0}
		if r == 0 {
			out["zero"] = 1
		}
		unpack(out, y, r)
		return out
	}}
}

// parityModel is circuits.ParityTree: p = xor of d.
func parityModel(w int) model {
	d := vec("d", w)
	return &funcModel{ins: d, fn: func(bit func(string) uint64) map[string]uint64 {
		return map[string]uint64{"p": uint64(bits.OnesCount64(word(bit, d)) & 1)}
	}}
}

// majorityModel is circuits.MajorityTree: m = popcount(d) > w/2.
func majorityModel(w int) model {
	d := vec("d", w)
	return &funcModel{ins: d, fn: func(bit func(string) uint64) map[string]uint64 {
		m := uint64(0)
		if bits.OnesCount64(word(bit, d)) > w/2 {
			m = 1
		}
		return map[string]uint64{"m": m}
	}}
}

// randomLogicModel evaluates circuits.RandomLogic's VHDL text directly: its
// body is a list of two-operand gate assignments (optionally negated), so
// a line-level reading is a complete reference without the VHDL front end.
func randomLogicModel(src string, nIn int) (model, error) {
	type gate struct {
		out, a, b, op string
		neg           bool
	}
	var gates []gate
	outs := map[string]string{}
	ref := func(s string) string { // x(3) -> x[3]; g7 stays g7
		return strings.NewReplacer("(", "[", ")", "]").Replace(s)
	}
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(strings.TrimSuffix(strings.TrimSpace(line), ";"))
		if len(f) < 3 || f[1] != "<=" {
			continue
		}
		if strings.HasPrefix(f[0], "y(") {
			outs[ref(f[0])] = f[2]
			continue
		}
		g := gate{out: f[0]}
		rest := f[2:]
		if rest[0] == "not" {
			g.neg = true
			inner := strings.Join(rest[1:], " ")
			rest = strings.Fields(strings.TrimSuffix(strings.TrimPrefix(inner, "("), ")"))
		}
		if len(rest) != 3 {
			return nil, fmt.Errorf("oracle: unexpected gate line %q", line)
		}
		g.a, g.op, g.b = ref(rest[0]), rest[1], ref(rest[2])
		gates = append(gates, g)
	}
	x := vec("x", nIn)
	return &funcModel{ins: x, fn: func(bit func(string) uint64) map[string]uint64 {
		val := map[string]uint64{}
		get := func(s string) uint64 {
			if v, ok := val[s]; ok {
				return v
			}
			return bit(s)
		}
		for _, g := range gates {
			a, b := get(g.a), get(g.b)
			var v uint64
			switch g.op {
			case "and":
				v = a & b
			case "or":
				v = a | b
			case "xor":
				v = a ^ b
			case "nand":
				v = 1 ^ (a & b)
			case "nor":
				v = 1 ^ (a | b)
			case "xnor":
				v = 1 ^ a ^ b
			}
			if g.neg {
				v ^= 1
			}
			val[g.out] = v
		}
		out := map[string]uint64{}
		for y, g := range outs {
			out[y] = val[g]
		}
		return out
	}}, nil
}

// oracleWords is how many 64-vector words each comparison applies; designs
// with at most 12 inputs are checked exhaustively instead.
const oracleWords = 8

// compareModels applies seeded random vectors (or every vector, for small
// input counts) to both models and reports the first output mismatch.
func compareModels(ref, impl model, seed int64) error {
	ins := append([]string(nil), ref.inputs()...)
	sort.Strings(ins)
	got := append([]string(nil), impl.inputs()...)
	sort.Strings(got)
	if strings.Join(ins, " ") != strings.Join(got, " ") {
		return fmt.Errorf("input ports differ: reference %v, bitstream %v", ins, got)
	}
	rng := rand.New(rand.NewSource(seed))
	words := oracleWords
	exhaustive := len(ins) <= 12
	if exhaustive {
		words = (1<<len(ins) + 63) / 64
	}
	for w := 0; w < words; w++ {
		in := make(map[string]uint64, len(ins))
		for k, name := range ins {
			if exhaustive {
				var x uint64
				for lane := 0; lane < 64; lane++ {
					x |= uint64((w*64+lane)>>k&1) << lane
				}
				in[name] = x
			} else {
				in[name] = rng.Uint64()
			}
		}
		want, err := ref.eval(in)
		if err != nil {
			return err
		}
		have, err := impl.eval(in)
		if err != nil {
			return err
		}
		if len(want) != len(have) {
			return fmt.Errorf("output ports differ: reference has %d, bitstream %d", len(want), len(have))
		}
		for name, v := range want {
			h, ok := have[name]
			if !ok {
				return fmt.Errorf("bitstream lacks output %s", name)
			}
			if diff := v ^ h; diff != 0 {
				return fmt.Errorf("output %s differs on %d of 64 vectors in word %d", name, bits.OnesCount64(diff), w)
			}
		}
	}
	return nil
}
