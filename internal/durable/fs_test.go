package durable

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Every durable write must pass through the seam in fs.go, or the
// crash-point tests cannot fault it: no other non-test file of the
// durable or eventstore packages may call an os function that creates,
// writes, renames, truncates or removes a file.
func TestDurableWritesGoThroughSeam(t *testing.T) {
	forbidden := map[string]bool{
		"Create": true, "CreateTemp": true, "OpenFile": true, "Rename": true,
		"Remove": true, "RemoveAll": true, "Truncate": true, "WriteFile": true,
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", filepath.Join("..", "eventstore")} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no Go files in %s (%v)", dir, err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") || name == "fs.go" {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			osName := ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "os" {
					osName = "os"
					if imp.Name != nil {
						osName = imp.Name.Name
					}
				}
			}
			if osName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == osName && forbidden[sel.Sel.Name] {
					t.Errorf("%s: os.%s bypasses the durable I/O seam (fs.go)", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
