// Callee fixtures: every allocation rule binds a hot function's module
// callees exactly as it binds the hot body itself, so each hot function
// below reaches one rule only through a helper and is flagged at the
// call site.
package hotpath

// sinkAny and sinkVariadic take interface arguments and do nothing:
// allocation-free themselves, the boxing happens at their callers.
func sinkAny(v any) {}

func sinkVariadic(vs ...any) {}

func noop() {}

// boxSink is an interface-typed location for the assignment rule.
var boxSink any

func boxesArg(x int) { sinkAny(x) }

// HotCalleeBoxesArg boxes an argument into an any parameter in a helper.
//
//qa:hotpath
func HotCalleeBoxesArg(x int) {
	boxesArg(x) // want: hotpath
}

func boxesVariadic(x int) { sinkVariadic(x) }

// HotCalleeBoxesVariadic boxes an argument into a ...any parameter in a
// helper.
//
//qa:hotpath
func HotCalleeBoxesVariadic(x int) {
	boxesVariadic(x) // want: hotpath
}

func forwardsVariadic(vs []any) { sinkVariadic(vs...) }

// HotCalleeForwardsVariadic passes an existing []any on with ...: no
// value is boxed.
//
//qa:hotpath
func HotCalleeForwardsVariadic(vs []any) {
	forwardsVariadic(vs)
}

func buildsLiteral(x, y int) point { return point{x, y} }

// HotCalleeComposite builds a composite literal in a helper.
//
//qa:hotpath
func HotCalleeComposite(x, y int) point {
	return buildsLiteral(x, y) // want: hotpath
}

func concats(a, b string) string { return a + b }

// HotCalleeConcat concatenates strings in a helper.
//
//qa:hotpath
func HotCalleeConcat(a, b string) string {
	return concats(a, b) // want: hotpath
}

func capturesArg(n int) int {
	f := func() int { return n }
	return f()
}

// HotCalleeCapture builds a capturing closure in a helper.
//
//qa:hotpath
func HotCalleeCapture(n int) int {
	return capturesArg(n) // want: hotpath
}

func convertsToInterface(n int) any { return any(n) }

// HotCalleeConvert converts to an interface in a helper.
//
//qa:hotpath
func HotCalleeConvert(n int) any {
	return convertsToInterface(n) // want: hotpath
}

func assignsBoxed(n int) { boxSink = n }

// HotCalleeAssign boxes a value by assignment in a helper.
//
//qa:hotpath
func HotCalleeAssign(n int) {
	assignsBoxed(n) // want: hotpath
}

func spawns() { go noop() }

func defers() { defer noop() }

// HotCalleeGoDefer starts a goroutine and defers a call in helpers.
//
//qa:hotpath
func HotCalleeGoDefer() {
	spawns() // want: hotpath
	defers() // want: hotpath
}
