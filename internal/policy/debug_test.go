//go:build thanosdebug

package policy

import (
	"strings"
	"testing"
)

// TestDebugViewLeases proves the thanosdebug traps on Exec's read-only
// contract fire: a held view panics when read after the next execution or
// the next table write, a write through a view panics the next execution —
// and a view read within its lease does neither.
func TestDebugViewLeases(t *testing.T) {
	newInterp := func() (*Interp, func()) {
		table, sch := lbTable(t)
		it, err := NewInterp(table, sch, MustParse("out ok = filter(table, cpu < 70)\nout pick = random(table)"))
		if err != nil {
			t.Fatal(err)
		}
		return it, func() {
			if err := table.Update(0, []int64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r == nil || !strings.Contains(r.(string), want) {
				t.Fatalf("%s: recovered %v, want a panic mentioning %q", what, r, want)
			}
		}()
		f()
	}

	it, write := newInterp()
	if outs := it.Exec(); !outs[0].Any() || outs[1].Count() != 1 {
		t.Fatalf("views read within their lease: ok = %s, pick = %s", outs[0], outs[1])
	}
	held := it.Exec()[0]
	write()
	mustPanic("read after a table write", "lease has ended", func() { held.IDs() })

	it, _ = newInterp()
	held = it.Exec()[0]
	it.Exec()
	mustPanic("read after the next Exec", "lease has ended", func() { held.Any() })

	it, _ = newInterp()
	held = it.Exec()[1]
	it.Decide(0)
	mustPanic("read after the next Decide", "lease has ended", func() { held.FirstSet() })

	it, _ = newInterp()
	pick := it.Exec()[1]
	pick.Set((pick.FirstSet() + 1) % pick.Len()) // within the lease: only the next execution can tell
	mustPanic("write through a view", "leased view 1 was written through", func() { it.Exec() })
}
