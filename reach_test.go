package prophet_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Why a function or field no non-test file references may stay.
const (
	// Tests assert on state nothing else exposes; deleting the accessor
	// deletes the assertion.
	window = "accessor tests use as their observation window"
	// Tests build what they exercise through it.
	fixture = "helper tests build their fixtures or reference values through"
	// Not an observation window and not a fixture: candidates for ROADMAP
	// item 8, the deletion residue.
	testOnly = "only its package's tests call it"
	// A field of a map key built positionally: the key is compared whole,
	// so the field does its work without being named.
	keyPart = "part of a map key compared whole"
)

// reachAllow lists the functions and struct fields no non-test file
// references and why each stays. The gate fails on an entry that is
// referenced after all, or that names nothing, so the list cannot rot.
var reachAllow = map[string]string{
	"internal/ps.WorkerError.Unwrap": "errors.Is/As call it through an anonymous interface inside the standard library",

	"internal/core.Queue.Exhausted":                 window,
	"internal/core.Queue.Remaining":                 window,
	"internal/metrics.RateSeries.TotalBytes":        window,
	"internal/metrics.IntervalSeries.Busy":          window,
	"internal/model.Model.IterComputeTime":          window,
	"internal/model.Model.TotalFwdFLOPs":            window,
	"internal/netsim.Link.BytesSent":                window,
	"internal/netsim.Monitor.Samples":               window,
	"internal/nn.MLP.TotalParams":                   window,
	"internal/probe.Histogram.Count":                window,
	"internal/probe.Histogram.Sum":                  window,
	"internal/probe.Histogram.Max":                  window,
	"internal/probe.Metrics.Snapshot":               window,
	"internal/probe.SpanRecorder.Lanes":             window,
	"internal/schedule.Queue.Credit":                window,
	"internal/schedule.CreditTuner.Best":            window,
	"internal/shard.Map.Load":                       window,
	"internal/shard.Map.Keys":                       window,
	"internal/sim.Engine.Active":                    window,
	"internal/sim.Engine.Pending":                   window,
	"internal/sim.Engine.FreeListLen":               window,
	"internal/sim.Handle.At":                        window,
	"internal/stepwise.Block.Size":                  window,
	"internal/stepwise.Buckets.NumGroups":           window,
	"internal/stepwise.Buckets.GroupOf":             window,
	"internal/core.WaitModel.Eval":                  fixture,
	"internal/fault.Derive":                         fixture,
	"internal/fault.Spec.Wrap":                      fixture,
	"internal/model.All":                            fixture,
	"internal/netsim.LinkConfig.EffectiveBandwidth": fixture,
	"internal/sim.Engine.RunFor":                    fixture,
	"internal/sim.Stddev":                           fixture,
	"internal/sim.Sum":                              fixture,
	"internal/tensor.Mat.Set":                       fixture,
	"internal/tensor.Mat.Clone":                     fixture,
	"internal/tensor.Vec.Scale":                     fixture,
	"internal/transport.FrameWriter.WriteFrame":     fixture,
	"internal/sim.Engine.Cancel":                    testOnly,

	"internal/probe/predict.joinKey.worker": keyPart,
	"internal/probe/predict.joinKey.lane":   keyPart,
	"internal/probe/predict.joinKey.seq":    keyPart,
	"internal/probe/predict.joinKey.iter":   keyPart,
	"internal/probe/predict.laneKey.worker": keyPart,
	"internal/probe/predict.laneKey.lane":   keyPart,
}

// modulePackages type-checks every non-test package under the repository
// root — the frozen benchmark/ module included, which resolves as
// prophet/benchmark — from source, resolving the standard library through
// the compiler's export data. It implements types.Importer over itself.
type modulePackages struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	errs  []error
}

func (m *modulePackages) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	pkg, _ := conf.Check(path, m.fset, files, m.info)
	m.pkgs[path] = pkg
	return pkg, nil
}

func loadModule(t *testing.T) *modulePackages {
	t.Helper()
	m := &modulePackages{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		std: importer.Default(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "prophet/" + filepath.ToSlash(dir)
		m.files[pkg] = append(m.files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.files {
		m.Import(path)
	}
	for _, err := range m.errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

// interfaces returns every named method-set interface the module can see,
// in its own and its transitive imports' scopes, and error.
func (m *modulePackages) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.pkgs {
		visit(pkg)
	}
	return out
}

// receiver returns the named type fn is a method of, nil for a function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := types.Unalias(recv.Type())
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = types.Unalias(ptr.Elem())
	}
	return typ.(*types.Named)
}

// satisfies reports whether fn is a method that some visible interface
// demands of its receiver type: such a method is called through the
// interface, which no identifier use records.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := receiver(fn)
	if recv == nil || recv.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
	}
	return false
}

// TestEveryFunctionIsReferenced is the offline reachability gate (`make
// lint` runs it; deadcode and staticcheck are not installed where this
// repository is built): every function or method declared in a non-test
// file outside benchmark/ is referenced from some non-test file — the frozen
// benchmark's files count as callers — outside its own body, or is a method
// an interface demands, or is in reachAllow with a reason; and every type
// declared there is named by some non-test file outside its own methods'
// receivers, and every struct field declared there too (deadFields). A
// function only its own test calls is production code nobody runs.
func TestEveryFunctionIsReferenced(t *testing.T) {
	m := loadModule(t)
	type decl struct {
		name     string
		pos, end token.Pos
	}
	declared := map[*types.Func]decl{}
	typeDecls := map[*types.TypeName]decl{}
	inReceiver := map[token.Pos]bool{} // identifiers inside a method's receiver
	for path, files := range m.files {
		if path == "prophet/benchmark" {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						name := strings.TrimPrefix(path, "prophet/") + "." + ts.Name.Name
						typeDecls[m.info.Defs[ts.Name].(*types.TypeName)] = decl{name, ts.Pos(), ts.End()}
					}
					continue
				}
				fd, ok := d.(*ast.FuncDecl)
				if ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							inReceiver[id.Pos()] = true
						}
						return true
					})
				}
				if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" || (fd.Name.Name == "main" && f.Name.Name == "main") {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				name := strings.TrimPrefix(path, "prophet/") + "."
				if recv := receiver(fn); recv != nil {
					name += recv.Obj().Name() + "."
				}
				declared[fn] = decl{name + fn.Name(), fd.Pos(), fd.End()}
			}
		}
	}
	referenced := map[*types.Func]bool{}
	typeNamed := map[*types.TypeName]bool{}
	for id, obj := range m.info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			fn := obj.Origin()
			if d, ok := declared[fn]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
				referenced[fn] = true
			}
		case *types.TypeName:
			if !inReceiver[id.Pos()] {
				typeNamed[obj] = true
			}
		}
	}
	ifaces := m.interfaces()
	var dead, viaInterface []string
	allowed := map[string]bool{}
	for fn, d := range declared {
		if referenced[fn] {
			continue
		}
		if satisfies(fn, ifaces) {
			viaInterface = append(viaInterface, d.name)
			continue
		}
		if _, ok := reachAllow[d.name]; ok {
			allowed[d.name] = true
			continue
		}
		dead = append(dead, m.fset.Position(d.pos).String()+": "+d.name)
	}
	// An interface naming a method does not mean anything calls it through
	// that interface: these pass only on that ground, and are the candidates
	// to check by hand (go test -v -run TestEveryFunctionIsReferenced .).
	sort.Strings(viaInterface)
	for _, name := range viaInterface {
		t.Logf("kept only by an interface naming it: %s", name)
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s is referenced by no non-test file: delete it, or add it to reachAllow with the reason it stays", line)
	}
	// A type nothing names, its own methods' receivers aside, is never
	// built: its methods run only in tests, whatever interface names them.
	var deadTypes []string
	for tn, d := range typeDecls {
		if !typeNamed[tn] {
			deadTypes = append(deadTypes, m.fset.Position(d.pos).String()+": type "+d.name)
		}
	}
	sort.Strings(deadTypes)
	for _, line := range deadTypes {
		t.Errorf("%s is named by no non-test file outside its methods' receivers: delete it", line)
	}
	for _, line := range deadFields(m, allowed) {
		t.Errorf("%s is named by no non-test file: delete it, or add it to reachAllow with the reason it stays", line)
	}
	for name := range reachAllow {
		if !allowed[name] {
			t.Errorf("reachAllow[%q] is stale: it names no function or field, or one that is referenced", name)
		}
	}
}

// deadFields returns every field of a struct declared in a non-test file
// outside benchmark/ that no non-test file names — as a selector or a
// composite-literal key — and that reachAllow does not list (the entries it
// does list are marked in allowed). A tagged field is read through
// reflection (encoding/json), a blank one is padding, and an embedded one
// is reached through the fields and methods it promotes: none is checked.
func deadFields(m *modulePackages, allowed map[string]bool) []string {
	named := map[*types.Var]bool{}
	for _, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			named[v.Origin()] = true
		}
	}
	var dead []string
	// walk checks the structs inside n, listing each field under owner: the
	// innermost enclosing type, else function, declaration.
	var walk func(n ast.Node, pkg, owner string)
	walk = func(n ast.Node, pkg, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, pkg, n.Name.Name)
				return false
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						if fld.Tag != nil || id.Name == "_" || named[m.info.Defs[id].(*types.Var)] {
							continue
						}
						name := pkg + "." + owner + "." + id.Name
						if _, ok := reachAllow[name]; ok {
							allowed[name] = true
							continue
						}
						dead = append(dead, m.fset.Position(id.Pos()).String()+": field "+name)
					}
				}
			}
			return true
		})
	}
	for path, files := range m.files {
		if path == "prophet/benchmark" {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				owner := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					owner = fd.Name.Name
				}
				walk(d, strings.TrimPrefix(path, "prophet/"), owner)
			}
		}
	}
	sort.Strings(dead)
	return dead
}
