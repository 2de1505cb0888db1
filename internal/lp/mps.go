package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteMPS serializes the model in free-format MPS, the lingua franca of LP
// solvers. All variables are nonnegative (the package's variable model);
// finite upper bounds set through SetUpper are emitted as UP entries in a
// BOUNDS section. Row and column names are synthesized as R<i>/C<j> unless
// the model carries names; the objective row is named OBJ.
//
// The writer exists so that models built here can be cross-checked against
// external solvers, and so tests can round-trip models through ReadMPS.
func (m *Model) WriteMPS(w io.Writer, name string) error {
	ew := &errWriter{bw: bufio.NewWriter(w)}
	if name == "" {
		name = "TCR"
	}
	ew.printf("NAME %s\n", name)
	ew.printf("ROWS\n")
	ew.printf(" N OBJ\n")
	rowName := func(i int) string { return fmt.Sprintf("R%d", i) }
	for i, r := range m.rows {
		var kind string
		switch r.rel {
		case LE:
			kind = "L"
		case GE:
			kind = "G"
		case EQ:
			kind = "E"
		}
		ew.printf(" %s %s\n", kind, rowName(i))
	}

	// COLUMNS: entries grouped per column, objective first.
	type entry struct {
		row  string
		coef float64
	}
	cols := make([][]entry, m.NumVars())
	for j, c := range m.obj {
		//lint:ignore floatcmp exact zero selects structurally present coefficients
		if c != 0 {
			cols[j] = append(cols[j], entry{"OBJ", c})
		}
	}
	for i, r := range m.rows {
		for _, t := range r.terms {
			cols[t.Var] = append(cols[t.Var], entry{rowName(i), t.Coef})
		}
	}
	ew.printf("COLUMNS\n")
	for j, es := range cols {
		if len(es) == 0 {
			// A column with no entries still gets a line, so the reader
			// keeps it (and the dense numbering of every later column).
			ew.printf(" C%d OBJ 0\n", j)
			continue
		}
		for _, e := range es {
			ew.printf(" C%d %s %s\n", j, e.row, formatMPS(e.coef))
		}
	}
	ew.printf("RHS\n")
	for i, r := range m.rows {
		//lint:ignore floatcmp MPS omits exactly-zero right-hand sides by convention
		if r.rhs != 0 {
			ew.printf(" RHS %s %s\n", rowName(i), formatMPS(r.rhs))
		}
	}
	if m.HasUpper() {
		ew.printf("BOUNDS\n")
		for j := range m.obj {
			if ub := m.Upper(VarID(j)); !math.IsInf(ub, 1) {
				ew.printf(" UP BND C%d %s\n", j, formatMPS(ub))
			}
		}
	}
	ew.printf("ENDATA\n")
	return ew.flush()
}

// errWriter latches the first write error so the MPS emitter can stay
// linear instead of threading an error through every print (the errdrop
// analyzer rejects silently dropped fmt.Fprintf errors on real writers).
type errWriter struct {
	bw  *bufio.Writer
	err error
}

func (w *errWriter) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.bw, format, args...)
}

func (w *errWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

func formatMPS(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}

// ReadMPS parses a free-format MPS file into a Model. It supports the
// sections WriteMPS produces (NAME, ROWS, COLUMNS, RHS, BOUNDS, ENDATA).
// BOUNDS entries are restricted to the package's variable model: UP with a
// nonnegative value (stored through SetUpper) and redundant LO ... 0;
// anything else is rejected.
func ReadMPS(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	m := NewModel()
	type rowInfo struct {
		rel   Rel
		terms []Term
		rhs   float64
		order int
	}
	rows := map[string]*rowInfo{}
	var rowOrder []string
	vars := map[string]VarID{}
	varOf := func(name string) VarID {
		if v, ok := vars[name]; ok {
			return v
		}
		v := m.AddVar(0, name)
		vars[name] = v
		return v
	}

	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '*'); i == 0 {
			continue // comment
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		fields := strings.Fields(trimmed)
		// Section headers start in column 1 (no leading space).
		if line[0] != ' ' && line[0] != '\t' {
			section = strings.ToUpper(fields[0])
			if section == "ENDATA" {
				break
			}
			continue
		}
		switch section {
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lp: mps line %d: malformed ROWS entry", lineNo)
			}
			kind, name := strings.ToUpper(fields[0]), fields[1]
			switch kind {
			case "N":
				rows[name] = nil // objective row marker
			case "L":
				rows[name] = &rowInfo{rel: LE, order: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "G":
				rows[name] = &rowInfo{rel: GE, order: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			case "E":
				rows[name] = &rowInfo{rel: EQ, order: len(rowOrder)}
				rowOrder = append(rowOrder, name)
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown row kind %q", lineNo, kind)
			}
		case "COLUMNS":
			// COL ROW VAL [ROW VAL]
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("lp: mps line %d: malformed COLUMNS entry", lineNo)
			}
			v := varOf(fields[0])
			for i := 1; i+1 < len(fields); i += 2 {
				val, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
				ri, ok := rows[fields[i]]
				if !ok {
					return nil, fmt.Errorf("lp: mps line %d: unknown row %q", lineNo, fields[i])
				}
				if ri == nil { // objective
					m.SetObj(v, m.Obj(v)+val)
					continue
				}
				ri.terms = append(ri.terms, Term{Var: v, Coef: val})
			}
		case "RHS":
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("lp: mps line %d: malformed RHS entry", lineNo)
			}
			for i := 1; i+1 < len(fields); i += 2 {
				val, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
				ri, ok := rows[fields[i]]
				if !ok || ri == nil {
					return nil, fmt.Errorf("lp: mps line %d: RHS for unknown row %q", lineNo, fields[i])
				}
				ri.rhs = val
			}
		case "BOUNDS":
			if len(fields) < 3 {
				return nil, fmt.Errorf("lp: mps line %d: malformed BOUNDS entry", lineNo)
			}
			kind := strings.ToUpper(fields[0])
			switch kind {
			case "LO":
				if len(fields) < 4 || fields[3] != "0" {
					return nil, fmt.Errorf("lp: mps line %d: only LO ... 0 lower bounds supported", lineNo)
				}
			case "UP":
				// UP BND COL VAL
				if len(fields) != 4 {
					return nil, fmt.Errorf("lp: mps line %d: malformed UP bound", lineNo)
				}
				ub, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
				if ub < 0 || math.IsNaN(ub) {
					return nil, fmt.Errorf("lp: mps line %d: negative upper bound %v unsupported (variables are nonnegative)", lineNo, ub)
				}
				v, ok := vars[fields[2]]
				if !ok {
					return nil, fmt.Errorf("lp: mps line %d: UP bound for unknown column %q", lineNo, fields[2])
				}
				if !math.IsInf(ub, 1) {
					m.SetUpper(v, ub)
				}
			default:
				return nil, fmt.Errorf("lp: mps line %d: bound kind %q not supported", lineNo, kind)
			}
		case "RANGES":
			return nil, fmt.Errorf("lp: mps line %d: RANGES not supported", lineNo)
		case "":
			return nil, fmt.Errorf("lp: mps line %d: data before any section", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Emit rows in declaration order for determinism.
	sort.SliceStable(rowOrder, func(i, j int) bool { return rows[rowOrder[i]].order < rows[rowOrder[j]].order })
	for _, name := range rowOrder {
		ri := rows[name]
		m.AddRow(ri.terms, ri.rel, ri.rhs, name)
	}
	return m, nil
}
