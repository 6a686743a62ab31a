package vm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Class describes an object layout and its methods, analogous to a class in
// a dex file.
type Class struct {
	Name    string
	Fields  []string
	fieldIx map[string]int
	Methods map[string]*Method
}

// NewClass creates a class with the given instance fields.
func NewClass(name string, fields ...string) *Class {
	c := &Class{
		Name:    name,
		Fields:  append([]string(nil), fields...),
		fieldIx: make(map[string]int, len(fields)),
		Methods: make(map[string]*Method),
	}
	for i, f := range fields {
		if _, dup := c.fieldIx[f]; dup {
			panic(fmt.Sprintf("vm: class %s declares field %s twice", name, f))
		}
		c.fieldIx[f] = i
	}
	return c
}

// FieldIndex returns the slot index of the named field, or -1.
func (c *Class) FieldIndex(name string) int {
	if i, ok := c.fieldIx[name]; ok {
		return i
	}
	return -1
}

// AddMethod attaches a method to the class; it returns the method for
// chaining.
func (c *Class) AddMethod(m *Method) *Method {
	if _, dup := c.Methods[m.Name]; dup {
		panic(fmt.Sprintf("vm: class %s declares method %s twice", c.Name, m.Name))
	}
	m.Class = c
	c.Methods[m.Name] = m
	return m
}

// Method is a unit of executable code: either bytecode (Code) or a native
// implementation registered at runtime by name.
type Method struct {
	Class *Class
	Name  string
	// NArgs arguments arrive in registers [0, NArgs).
	NArgs int
	// NRegs is the total register count of a frame.
	NRegs int
	Code  []Instr

	// verdict and fastCode are derived state computed by Program.Analyze
	// (see taintflow.go): the static taint-flow classification and — for
	// fast-eligible methods — the quickened instruction stream the
	// uninstrumented fast-path loop executes. Like the inline caches, they
	// are never serialized, hashed, or disassembled as code; Code stays
	// authoritative.
	verdict  Verdict
	fastCode []Instr
	// leaf marks a fast-eligible method the fast loop calls without a
	// frame; leafZero lists the registers it reads before writing, and
	// leafArg is the argument it returns unchanged, or -1 when it returns
	// an integer it computed (see leafShape in quicken.go).
	leaf     bool
	leafZero uint16
	leafArg  int
}

// FullName returns "Class.method".
func (m *Method) FullName() string { return m.Class.Name + "." + m.Name }

// Verdict returns the method's static taint-flow classification
// (VerdictUnknown until the owning program is analyzed).
func (m *Method) Verdict() Verdict { return m.verdict }

// Program is the loaded application: the analogue of a dex file. Programs
// are immutable once sealed and are loaded identically on the device and the
// trusted node (the dex transfer at warm-up, §6.2).
type Program struct {
	Name    string
	classes map[string]*Class
	sealed  bool
	linked  bool
	hash    string
	// analysis is the taint pre-analysis result (taintflow.go), nil until
	// Analyze runs.
	analysis *Analysis
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, classes: make(map[string]*Class)}
}

// AddClass registers a class. It panics on duplicates or after sealing.
func (p *Program) AddClass(c *Class) *Class {
	if p.sealed {
		panic("vm: program sealed")
	}
	if _, dup := p.classes[c.Name]; dup {
		panic(fmt.Sprintf("vm: program already has class %s", c.Name))
	}
	p.classes[c.Name] = c
	return c
}

// Class looks up a class by name.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes sorted by name.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Method resolves "Class.method"; it returns nil if absent.
func (p *Program) Method(class, method string) *Method {
	c := p.classes[class]
	if c == nil {
		return nil
	}
	return c.Methods[method]
}

// Seal freezes the program and computes its dex hash.
func (p *Program) Seal() {
	if p.sealed {
		return
	}
	p.sealed = true
	p.hash = p.computeHash()
}

// Hash returns the program's content hash — the analogue of the dex-file
// hash the trusted node uses for app↔cor binding (§3.4). The program must be
// sealed first.
func (p *Program) Hash() string {
	if !p.sealed {
		panic("vm: Hash called before Seal")
	}
	return p.hash
}

// CodeSize returns the total number of instructions across all methods; the
// warm-up transfer cost is proportional to it.
func (p *Program) CodeSize() int {
	n := 0
	for _, c := range p.classes {
		for _, m := range c.Methods {
			n += len(m.Code)
		}
	}
	return n
}

func (p *Program) computeHash() string {
	// The hash covers code and layout only — not the install name — so a
	// renamed copy of known malware still matches the hash database (§3.4).
	h := sha256.New()
	for _, c := range p.Classes() {
		fmt.Fprintf(h, "class %s fields %s\n", c.Name, strings.Join(c.Fields, ","))
		names := make([]string, 0, len(c.Methods))
		for n := range c.Methods {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := c.Methods[n]
			fmt.Fprintf(h, "method %s args %d regs %d\n", n, m.NArgs, m.NRegs)
			for _, in := range m.Code {
				fmt.Fprintf(h, "%s\n", in.String())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
