package codeletfft_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lintedDocs are the documents that must name only what exists: the
// README, the design and the EXPERIMENTS ledger. docs/history is the
// append-only record of what was measured when, so it names what has
// since gone and is not linted; neither are ROADMAP, CHANGES, the paper
// notes or bench/README.md.
var lintedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docExempt are backticked names that resolve to nothing in the module
// on purpose, each with its reason.
var docExempt = map[string]string{
	"FMADDD": "arm64 instruction the compiler emits for math.Sincos (DESIGN §14); no .s file uses it",
	"FMSUBD": "arm64 instruction the compiler emits for math.Sincos (DESIGN §14); no .s file uses it",
}

// goToolFlags are the go command's own flags, which documents name
// beside the module's; true marks the ones that take a value.
var goToolFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "fuzztime": true, "benchtime": true,
	"count": true, "cpu": true, "tags": true, "timeout": true, "o": true,
	"cpuprofile": true, "memprofile": true, "gcflags": true, "ldflags": true,
	"coverprofile": true, "list": true,
	"benchmem": false, "race": false, "short": false, "v": false, "json": false,
	"cover": false, "failfast": false, "trimpath": false,
}

// docIndex is what the module declares, read with go/parser from every
// .go file under the root (tests and the bench module included) and
// from every .s file, and the headings and files citations may name.
type docIndex struct {
	decls    map[string]bool            // every declared name: package level, methods, fields, locals
	members  map[string]map[string]bool // type name → its fields and methods
	pkgDecls map[string]map[string]bool // package name → its package-level names
	std      map[string]bool            // names of the standard-library packages the module imports
	asm      map[string]bool            // TEXT symbols and #define macros
	flags    map[string]map[string]bool // package dir → the flag names declared there
	strs     map[string]bool            // string literals; a sum with other operands has a %s for each
	tests    map[string][]string        // package dir → its Test, Benchmark, Fuzz and Example functions
	mains    map[string]bool            // dirs of main packages
	comments []docComment               // every Go comment group
	headings []string                   // ## and ### headings of the ledger and docs/history
	design   map[string]bool            // DESIGN section numbers
	history  map[string]bool            // files under docs/history
}

type docComment struct{ pos, text string }

func buildDocIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{
		decls:    map[string]bool{},
		members:  map[string]map[string]bool{},
		pkgDecls: map[string]map[string]bool{},
		std:      map[string]bool{},
		asm:      map[string]bool{},
		flags:    map[string]map[string]bool{},
		strs:     map[string]bool{},
		tests:    map[string][]string{},
		mains:    map[string]bool{},
		design:   map[string]bool{},
		history:  map[string]bool{},
	}
	asmName := regexp.MustCompile(`(?m)^(?:TEXT\s+·?|#define\s+)(\w+)`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
		case filepath.Ext(path) == ".s":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range asmName.FindAllStringSubmatch(string(src), -1) {
				ix.asm[m[1]] = true
			}
		case filepath.Ext(path) == ".go":
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ix.addFile(filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go"), f)
			for _, cg := range f.Comments {
				ix.comments = append(ix.comments, docComment{fset.Position(cg.Pos()).String(), strings.Join(strings.Fields(cg.Text()), " ")})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) string {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	hist, err := filepath.Glob(filepath.Join("docs", "history", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^#{2,3} (.+)$`)
	for _, p := range append(hist, "EXPERIMENTS.md") {
		for _, m := range heading.FindAllStringSubmatch(read(p), -1) {
			ix.headings = append(ix.headings, normTitle(m[1]))
		}
		ix.history[filepath.ToSlash(p)] = true
	}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(read("DESIGN.md"), -1) {
		ix.design[m[1]] = true
	}
	return ix
}

func (ix *docIndex) addFile(dir string, isTest bool, f *ast.File) {
	if f.Name.Name == "main" {
		ix.mains[dir] = true
	}
	if ix.pkgDecls[f.Name.Name] == nil {
		ix.pkgDecls[f.Name.Name] = map[string]bool{}
	}
	top := ix.pkgDecls[f.Name.Name]
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		if strings.HasPrefix(path, "codeletfft") {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		ix.std[name] = true
	}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
		ix.decls[name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ix.decls[d.Name.Name] = true
			if d.Recv != nil {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
				continue
			}
			top[d.Name.Name] = true
			for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if isTest && strings.HasPrefix(d.Name.Name, p) {
					ix.tests[dir] = append(ix.tests[dir], d.Name.Name)
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			ix.decls[n.Name.Name] = true
			var fields []*ast.Field
			switch tt := n.Type.(type) {
			case *ast.StructType:
				fields = tt.Fields.List
			case *ast.InterfaceType:
				fields = tt.Methods.List
			}
			for _, fl := range fields {
				for _, nm := range fl.Names {
					member(n.Name.Name, nm.Name)
				}
				if len(fl.Names) == 0 { // embedded
					member(n.Name.Name, typeName(fl.Type))
				}
			}
		case *ast.ValueSpec:
			for _, nm := range n.Names {
				ix.decls[nm.Name] = true
			}
		case *ast.Field:
			for _, nm := range n.Names {
				ix.decls[nm.Name] = true
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
					ix.decls[id.Name] = true
				}
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				ix.strs[s] = true
			}
		case *ast.BinaryExpr:
			// "dist_worker_" + addr + "_errors_total" names a family:
			// it is recorded as "dist_worker_%s_errors_total".
			if pat, ok := concatPattern(n); ok {
				ix.strs[pat] = true
			}
		case *ast.CallExpr:
			ix.addFlag(dir, n)
		}
		return true
	})
}

// addFlag records the name a flag.String/Int/…/Var call (or a
// FlagSet's) declares.
func (ix *docIndex) addFlag(dir string, c *ast.CallExpr) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch strings.TrimSuffix(sel.Sel.Name, "Var") {
	case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration", "", "Text", "Func", "BoolFunc":
	default:
		return
	}
	for _, a := range c.Args[:min(2, len(c.Args))] {
		if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			if ix.flags[dir] == nil {
				ix.flags[dir] = map[string]bool{}
			}
			ix.flags[dir][name] = true
			return
		}
	}
}

// concatPattern is a sum of string literals and other operands as one
// format, each other operand a %s; ok is false without a literal.
func concatPattern(e ast.Expr) (pat string, ok bool) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			x, okx := concatPattern(e.X)
			y, oky := concatPattern(e.Y)
			return x + y, okx || oky
		}
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.ParenExpr:
		return concatPattern(e.X)
	}
	return "%s", false
}

// typeName is the name of a receiver's or an embedded field's type.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func normTitle(s string) string {
	s = strings.NewReplacer("`", "", "*", "", "…", "").Replace(s)
	return strings.Join(strings.Fields(s), " ")
}

var (
	fenceRe    = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```[ \t]*$")
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	expCiteRe  = regexp.MustCompile(`EXPERIMENTS(?:\.md)?,?\s+(?:"([^"]+)"|\*([^*]+)\*)`)
	designRe   = regexp.MustCompile(`DESIGN(?:\.md)?,?\s+§\s*(\d+)`)
	historyRe  = regexp.MustCompile(`docs/history/[\w.-]+\.md`)
	flagRe     = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(?:=.*)?$`)
	metricRe   = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:[._][a-z0-9_<>*{},|]+)+$`)
	mathRe     = regexp.MustCompile(`^[A-Z][0-9₀-₉]*$`)
	capsRe     = regexp.MustCompile(`^[A-Z][A-Z0-9_]+$`)
	headerRe   = regexp.MustCompile(`^[A-Z][A-Za-z]*(?:-[A-Z][A-Za-z]*)+$`)
	fileExtRe  = regexp.MustCompile(`\.(go|s|md|json|csv|txt|sh|yml|yaml|golden|mod|sum|pprof|out)$`)
)

// finding is a problem at a byte offset of the text checked.
type finding struct {
	off int
	msg string
}

// lintDoc returns one line per reference in a Markdown text that names
// nothing in the module: a backticked Go name, assembly name, flag,
// metric or bench row, a command in backticks or in a fenced block, or
// a citation of EXPERIMENTS, DESIGN or docs/history.
func (ix *docIndex) lintDoc(name, text string) []string {
	var found []finding
	// A fenced block holds commands, one a line (with \ continuations).
	// Blank it out of the prose so its backticks are not read as spans.
	prose := []byte(text)
	for _, m := range fenceRe.FindAllStringSubmatchIndex(text, -1) {
		for _, line := range strings.Split(strings.ReplaceAll(text[m[2]:m[3]], "\\\n", " "), "\n") {
			for _, p := range ix.checkCommands(strings.TrimPrefix(strings.TrimSpace(line), "$ ")) {
				found = append(found, finding{m[2], p})
			}
		}
		for i := m[0]; i < m[1]; i++ {
			if prose[i] != '\n' {
				prose[i] = ' '
			}
		}
	}
	for _, m := range codeSpanRe.FindAllSubmatchIndex(prose, -1) {
		if span := text[m[2]:m[3]]; !strings.Contains(span, "\n\n") {
			for _, p := range ix.checkSpan(strings.Join(strings.Fields(span), " ")) {
				found = append(found, finding{m[2], p})
			}
		}
	}
	found = append(found, ix.checkCitations(string(prose))...)
	var probs []string
	for _, f := range found {
		probs = append(probs, fmt.Sprintf("%s:%d: %s", name, 1+strings.Count(text[:f.off], "\n"), f.msg))
	}
	return probs
}

// checkCitations checks citations of an EXPERIMENTS heading (by a
// quoted or starred prefix of its title), a DESIGN section (§ and its
// number) and a docs/history file, in prose or in a Go comment.
func (ix *docIndex) checkCitations(text string) []finding {
	var found []finding
	for _, m := range expCiteRe.FindAllStringSubmatchIndex(text, -1) {
		g := m[2:4]
		if g[0] < 0 {
			g = m[4:6]
		}
		title := normTitle(text[g[0]:g[1]])
		ok := false
		for _, h := range ix.headings {
			ok = ok || strings.HasPrefix(h, title)
		}
		if !ok {
			found = append(found, finding{m[0], fmt.Sprintf("EXPERIMENTS %q: no such heading in the ledger or docs/history", title)})
		}
	}
	for _, m := range designRe.FindAllStringSubmatchIndex(text, -1) {
		if n := text[m[2]:m[3]]; !ix.design[n] {
			found = append(found, finding{m[0], fmt.Sprintf("DESIGN §%s: no such section", n)})
		}
	}
	for _, m := range historyRe.FindAllStringIndex(text, -1) {
		if p := text[m[0]:m[1]]; !ix.history[p] {
			found = append(found, finding{m[0], fmt.Sprintf("%s: no such file", p)})
		}
	}
	return found
}

// checkSpan classifies one backticked span and resolves what it names.
func (ix *docIndex) checkSpan(s string) []string {
	f := strings.Fields(s)
	if _, ok := docExempt[s]; ok || len(f) == 0 {
		return nil
	}
	if f[0] == "go" || ix.binaryDir(f[0]) != "" {
		return ix.checkCommands(s)
	}
	if m := flagRe.FindStringSubmatch(f[0]); m != nil && !strings.ContainsAny(s, "()") {
		if _, ok := goToolFlags[m[1]]; !ok && !ix.anyFlag(m[1]) {
			return []string{fmt.Sprintf("flag -%s: declared by no flag call", m[1])}
		}
		return nil
	}
	if strings.Contains(s, "/") || fileExtRe.MatchString(s) || headerRe.MatchString(s) {
		return nil
	}
	if metricRe.MatchString(s) && ix.isMetric(s) {
		if !ix.matchString(s) {
			return []string{fmt.Sprintf("%s: no string literal names this metric or row", s)}
		}
		return nil
	}
	if capsRe.MatchString(s) {
		if !ix.asm[s] && !ix.decls[s] && !ix.strs[s] {
			return []string{fmt.Sprintf("%s: no TEXT symbol, #define, declaration or string literal", s)}
		}
		return nil
	}
	if e, err := parser.ParseExpr(s); err == nil {
		return ix.checkExpr(e)
	}
	return nil
}

// isMetric tells a metric or bench row name (fft.ns_per_pt.mixed_1000,
// batch_resident) from a dotted Go path (fft.NewPlan, host.Engine,
// task.share).
func (ix *docIndex) isMetric(s string) bool {
	if strings.ContainsAny(s, "_<*{") {
		return true
	}
	root, _, _ := strings.Cut(s, ".")
	_, isPkg := ix.pkgDecls[root]
	_, isType := ix.members[root]
	return !isPkg && !isType && !ix.std[root]
}

// matchString reports whether some string literal names s, where s's
// <…> and * match any run of characters and {a,b} either of a and b; a
// wildcard also matches a family's %s.
func (ix *docIndex) matchString(s string) bool {
	if ix.strs[s] {
		return true
	}
	var pat strings.Builder
	for i := 0; i < len(s); i++ {
		j := -1
		switch s[i] {
		case '<':
			j = strings.IndexByte(s[i:], '>')
		case '{':
			j = strings.IndexByte(s[i:], '}')
		case '*':
			pat.WriteString(".*")
			continue
		}
		switch {
		case j < 0:
			pat.WriteString(regexp.QuoteMeta(s[i : i+1]))
		case s[i] == '<':
			pat.WriteString(".*")
		default:
			alts := strings.Split(s[i+1:i+j], ",")
			for k := range alts {
				alts[k] = regexp.QuoteMeta(alts[k])
			}
			pat.WriteString("(?:" + strings.Join(alts, "|") + ")")
		}
		i += max(j, 0)
	}
	re := regexp.MustCompile("^" + pat.String() + "$")
	for lit := range ix.strs {
		if re.MatchString(lit) {
			return true
		}
	}
	return false
}

func (ix *docIndex) anyFlag(name string) bool {
	for _, fl := range ix.flags {
		if fl[name] {
			return true
		}
	}
	return false
}

// checkExpr resolves the names of a Go expression. A selector chain on
// a module package resolves in that package, and its next link among
// that type's fields and methods; a chain on a standard-library package
// or on a lower-case variable is out of scope. Any other name with an
// upper-case letter (and more than a math symbol's letter and digits)
// must be declared somewhere.
func (ix *docIndex) checkExpr(e ast.Expr) []string {
	var probs []string
	checkable := func(n string) bool { return strings.ToLower(n) != n && !mathRe.MatchString(n) }
	want := func(ok bool, format string, args ...any) {
		if !ok {
			probs = append(probs, fmt.Sprintf(format, args...))
		}
	}
	// members checks chain[1:]: a type's own fields and methods for the
	// link after a type name, any declaration for the rest.
	members := func(chain []string, path string) {
		for i := 1; i < len(chain); i++ {
			c := chain[i]
			if mem, isType := ix.members[chain[i-1]]; isType && i == 1 {
				want(mem[c], "%s: %s has no field or method %s", path, chain[i-1], c)
			} else if checkable(c) {
				want(ix.decls[c], "%s: %s is declared nowhere in the module", path, c)
			}
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			var chain []string
			x := ast.Expr(n)
			for sel, ok := x.(*ast.SelectorExpr); ok; sel, ok = x.(*ast.SelectorExpr) {
				chain = append([]string{sel.Sel.Name}, chain...)
				x = sel.X
			}
			root, ok := x.(*ast.Ident)
			if !ok {
				probs = append(probs, ix.checkExpr(x)...)
				members(append([]string{""}, chain...), strings.Join(chain, "."))
				return false
			}
			path := root.Name + "." + strings.Join(chain, ".")
			if top, isPkg := ix.pkgDecls[root.Name]; isPkg && (top[chain[0]] || !ix.std[root.Name]) {
				want(top[chain[0]], "%s: %s declares no %s", path, root.Name, chain[0])
				members(chain, path)
				return false
			}
			if ix.std[root.Name] || !checkable(root.Name) {
				return false
			}
			want(ix.decls[root.Name], "%s: %s is declared nowhere in the module", path, root.Name)
			members(append([]string{root.Name}, chain...), path)
			return false
		case *ast.Ident:
			if checkable(n.Name) {
				want(ix.decls[n.Name], "%s: declared nowhere in the module", n.Name)
			}
		}
		return true
	})
	return probs
}

// binaryDir is the package dir a command is built from: a main
// package's dir by its base name, or bench for fftbench, which
// bench/run.sh builds from it.
func (ix *docIndex) binaryDir(cmd string) string {
	name := filepath.Base(cmd)
	if name == "fftbench" {
		return "bench"
	}
	for d := range ix.mains {
		if filepath.Base(d) == name && name != "bench" {
			return d
		}
	}
	return ""
}

// shellCommands splits a command line into its commands (separated by
// &&, ||, ;, | or &) and each command into words, quotes removed. A #
// or > ends what is checked.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var cur []string
	var w strings.Builder
	inWord, quote := false, rune(0)
	word := func() {
		if inWord {
			cur, inWord = append(cur, w.String()), false
			w.Reset()
		}
	}
	end := func() {
		if word(); len(cur) > 0 {
			cmds, cur = append(cmds, cur), nil
		}
	}
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			word()
		case strings.ContainsRune("&|;", r):
			end()
		case r == '#' || r == '>':
			end()
			return cmds
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	end()
	return cmds
}

// checkCommands checks each go test, go run or module binary command
// of a line: a -run, -bench or -fuzz alternative matches a function of
// the named packages, go run names a main package, and a binary's
// flags are declared in its package.
func (ix *docIndex) checkCommands(line string) []string {
	var probs []string
	for _, f := range shellCommands(line) {
		for len(f) > 0 && strings.Contains(f[0], "=") && !strings.HasPrefix(f[0], "-") {
			f = f[1:] // VAR=value prefixes
		}
		if p := ix.checkCommand(f); p != "" {
			probs = append(probs, fmt.Sprintf("%q: %s", line, p))
		}
	}
	return probs
}

func (ix *docIndex) checkCommand(f []string) string {
	switch {
	case len(f) == 0:
		return ""
	case f[0] != "go":
		if dir := ix.binaryDir(f[0]); dir != "" {
			return ix.checkFlags(dir, f[1:])
		}
	case len(f) > 2 && f[1] == "run":
		for i, a := range f[2:] {
			if strings.HasPrefix(a, "-") {
				continue
			}
			dir := strings.Trim(strings.TrimPrefix(a, "./"), "/")
			if !ix.mains[dir] {
				return fmt.Sprintf("%s is not a main package", a)
			}
			return ix.checkFlags(dir, f[3+i:])
		}
	case len(f) > 2 && f[1] == "test":
		var pkgs []string
		pats := map[string]string{}
		for i := 2; i < len(f); i++ {
			if !strings.HasPrefix(f[i], "-") {
				pkgs = append(pkgs, f[i])
				continue
			}
			name, val, hasVal := strings.Cut(strings.TrimLeft(f[i], "-"), "=")
			if !hasVal && goToolFlags[name] && i+1 < len(f) {
				i++
				val = f[i]
			}
			pats[name] = val
		}
		dirs, p := ix.testDirs(pkgs)
		if p != "" {
			return p
		}
		for _, kind := range []string{"run", "bench", "fuzz"} {
			if pat, ok := pats[kind]; ok && pat != "^$" {
				if p := ix.matchTests(kind, pat, dirs); p != "" {
					return p
				}
			}
		}
	}
	return ""
}

func (ix *docIndex) checkFlags(dir string, args []string) string {
	for _, a := range args {
		if m := flagRe.FindStringSubmatch(a); m != nil && !ix.flags[dir][m[1]] && m[1] != "h" {
			return fmt.Sprintf("%s declares no flag -%s", dir, m[1])
		}
	}
	return ""
}

// testDirs maps go test package arguments to package dirs. No argument
// means any package: prose names the package it discusses only in
// passing.
func (ix *docIndex) testDirs(pkgs []string) ([]string, string) {
	var all, dirs []string
	for d := range ix.tests {
		all = append(all, d)
	}
	if len(pkgs) == 0 {
		return all, ""
	}
	for _, p := range pkgs {
		pre, tree := strings.CutSuffix(strings.TrimPrefix(p, "./"), "...")
		if pre = strings.TrimSuffix(pre, "/"); pre == "" {
			pre = "."
		}
		if m, _ := filepath.Glob(filepath.Join(pre, "*.go")); len(m) == 0 && !tree {
			return nil, fmt.Sprintf("no package %s", p)
		}
		for _, d := range all {
			if d == pre || tree && (pre == "." || strings.HasPrefix(d, pre+"/")) {
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, ""
}

// matchTests reports "" if each |-alternative of pattern (its first
// /-separated element, as go test splits it for subtests) matches a
// function go test would run for that flag in one of dirs.
func (ix *docIndex) matchTests(kind, pattern string, dirs []string) string {
	first := strings.SplitN(pattern, "/", 2)[0]
	alts := []string{first}
	if !strings.ContainsAny(first, "()") {
		alts = strings.Split(first, "|")
	}
	prefixes := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}[kind]
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			return fmt.Sprintf("-%s %s: %v", kind, pattern, err)
		}
		ok := false
		for _, d := range dirs {
			for _, fn := range ix.tests[d] {
				for _, p := range prefixes {
					ok = ok || strings.HasPrefix(fn, p) && re.MatchString(fn)
				}
			}
		}
		if !ok {
			return fmt.Sprintf("-%s %s matches no function in %s", kind, alt, strings.Join(dirs, " "))
		}
	}
	return ""
}

// TestDocsNameWhatExists holds README.md, DESIGN.md and the
// EXPERIMENTS ledger to the tree: every backticked name, flag, metric
// and command, and every EXPERIMENTS, DESIGN or docs/history citation,
// resolves. Go comments' citations are held to the same rule.
func TestDocsNameWhatExists(t *testing.T) {
	ix := buildDocIndex(t)
	for _, name := range lintedDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ix.lintDoc(name, string(b)) {
			t.Error(p)
		}
	}
	for _, c := range ix.comments {
		for _, f := range ix.checkCitations(c.text) {
			t.Errorf("%s: %s", c.pos, f.msg)
		}
	}
}

// TestDocsLintCatchesStale plants one stale reference of each kind the
// lint checks, beside a live one of the same kind.
func TestDocsLintCatchesStale(t *testing.T) {
	ix := buildDocIndex(t)
	for _, c := range []struct {
		doc   string
		stale bool
	}{
		{"`NextSmooth`", true},
		{"`BluesteinLen`", false},
		{"`Config.BatchWindow`", true},
		{"`serve.Config`", false},
		{"`fft.NoSuchName`", true},
		{"`fft.NewMixedPlan(n)`", false},
		{"`HostPlan.ParallelTransform`", true},
		{"`HostPlan.Transform`", false},
		{"`BFLY9`", true},
		{"`BFLY3`", false},
		{"`mixed44Asm`", false},
		{"`fftserved -window`", true},
		{"`fftserved -addr 127.0.0.1:8080`", false},
		{"`-window`", true},
		{"`-budget`", false},
		{"`fft.ns_per_pt.no_such_row`", true},
		{"`fft.ns_per_pt.mixed_3072`", false},
		{"`ooc_prefetch_*_ch<i>_total`", false},
		{"`dist_worker_<addr>_errors_total`", false},
		{"`no_such_workload`", true},
		{"`large_anyn`", false},
		{`EXPERIMENTS "No such section"`, true},
		{`EXPERIMENTS "Wire path"`, false},
		{"DESIGN §99", true},
		{"DESIGN §14", false},
		{"`go test -run TestNoSuchTest`", true},
		{"`go test -run TestDefaultPlanDigests -update .`", false},
		{"`go test -run 'TestDefaultPlanDigests|TestNoSuchTest' .`", true},
		{"`go test -run '^$' -bench NoSuchBench ./internal/fft`", true},
		{"`go test -run '^$' -bench MixedPlan ./internal/fft`", false},
		{"`go test -run TestMixedErrorBudget ./internal/nosuch`", true},
		{"```sh\ngo test -run TestNoSuchTest ./internal/fft\n```", true},
		{"`go run ./cmd/nosuch`", true},
		{"`go run ./cmd/fftooc -logn 20 -budget 64MiB`", false},
		{"docs/history/99-no-such-entry.md", true},
		{"docs/history/10-wire-path-each-byte-moved-once.md", false},
	} {
		got := ix.lintDoc("case", c.doc)
		if stale := len(got) > 0; stale != c.stale {
			t.Errorf("%q: stale %v, want %v (%v)", c.doc, stale, c.stale, got)
		}
	}
}
