package hope_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"hope"
	"hope/internal/wire"
)

// TestExportedAPIHidesInternalTypes parses every non-test file of the
// façade package and fails if any exported function signature or
// explicitly typed exported declaration names a type from an internal
// package. Type aliases are the sanctioned mechanism for surfacing
// internal types — they give the type a name in this package — so alias
// declarations themselves are exempt; everything else must use the
// alias. Unexported helpers (like SpeculationPolicy's controller
// builder) may of course name internal types.
func TestExportedAPIHidesInternalTypes(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse package: %v", err)
	}
	pkg := pkgs["hope"]
	if pkg == nil {
		t.Fatal("package hope not found in .")
	}

	checked := 0
	for _, f := range pkg.Files {
		internal := map[string]bool{}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.Contains(path, "/internal/") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			internal[name] = true
		}
		if len(internal) == 0 {
			continue // nothing to leak from this file
		}
		checked++

		leaks := func(n ast.Node, what string) {
			ast.Inspect(n, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && internal[id.Name] {
					t.Errorf("%s: %s leaks %s.%s into the exported API",
						fset.Position(n.Pos()), what, id.Name, sel.Sel.Name)
				}
				return true
			})
		}

		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					leaks(d.Type, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR && d.Tok != token.CONST {
					continue // type aliases are the sanctioned surface
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || vs.Type == nil {
						continue // inferred types resolve via aliases
					}
					for _, name := range vs.Names {
						if name.IsExported() {
							leaks(vs.Type, d.Tok.String()+" "+name.Name)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no façade file imports internal packages — test is miswired")
	}
}

// TestErrorsComposeAcrossFacade checks that the degradation errors
// surface through the façade and stay errors.Is-composable even when
// wrapped by caller code.
func TestErrorsComposeAcrossFacade(t *testing.T) {
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rt.Shutdown()
	errCh := make(chan error, 1)
	if err := rt.Spawn("poller", func(p *hope.Proc) error {
		_, err := p.RecvTimeout(time.Millisecond)
		errCh <- fmt.Errorf("poll: %w", err)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, hope.ErrTimeout) {
		t.Fatalf("wrapped RecvTimeout error %v does not match hope.ErrTimeout", err)
	}

	plan := hope.NewFaultPlan(hope.FaultConfig{Drop: 1})
	rt2 := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard, Faults: plan}))
	defer rt2.Shutdown()
	if err := rt2.Spawn("sink", func(p *hope.Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := rt2.Spawn("tx", func(p *hope.Proc) error {
		errCh <- fmt.Errorf("send: %w", p.Send("sink", 1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; !errors.Is(err, hope.ErrDelivery) {
		t.Fatalf("wrapped Send error %v does not match hope.ErrDelivery", err)
	}
}

// TestWireErrorsComposeAcrossFacade checks the error taxonomy across
// the wire transport: a Send whose destination lives in another runtime
// behind a lost TCP peer degrades to the same errors.Is-composable
// hope.ErrDelivery a local injected drop produces — so retry logic
// written against the façade works unchanged when the workload is
// distributed.
func TestWireErrorsComposeAcrossFacade(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]uint32{"tx": 0, "rx": 1}

	rtA := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rtA.Shutdown()
	nodeA, err := wire.NewNode(rtA, wire.Config{
		ID: 0, Listener: lnA, Peers: map[uint32]string{1: lnB.Addr().String()}, Procs: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	rtB := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	defer rtB.Shutdown()
	nodeB, err := wire.NewNode(rtB, wire.Config{
		ID: 1, Listener: lnB, Peers: map[uint32]string{0: lnA.Addr().String()}, Procs: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	lost := make(chan struct{})
	errCh := make(chan error, 1)
	if err := rtA.Spawn("tx", func(p *hope.Proc) error {
		<-lost
		// TCP surfaces the peer's death on a write attempt, not
		// instantly; every failed attempt must compose as ErrDelivery.
		for i := 0; i < 400; i++ {
			if err := p.Send("rx", i); err != nil {
				errCh <- fmt.Errorf("distributed send: %w", err)
				return nil
			}
			time.Sleep(5 * time.Millisecond)
		}
		errCh <- fmt.Errorf("sends kept succeeding after peer loss")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := nodeA.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Start(); err != nil {
		t.Fatal(err)
	}
	nodeB.Close()
	rtB.Shutdown()
	close(lost)

	if err := <-errCh; !errors.Is(err, hope.ErrDelivery) {
		t.Fatalf("wrapped wire-loss Send error %v does not match hope.ErrDelivery", err)
	}
	rtA.Wait()
}

// TestParseFaultsRoundTrip checks the façade's spec-string entry point.
func TestParseFaultsRoundTrip(t *testing.T) {
	plan, err := hope.ParseFaults("seed=7,drop=0.25,maxcrashes=2")
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Config().Seed; got != 7 {
		t.Fatalf("Seed = %d, want 7", got)
	}
	if _, err := hope.ParseFaults("seed=7,bogus=1"); err == nil {
		t.Fatal("ParseFaults accepted an unknown key")
	}
}
