// Package staleignore seeds the ignore meta-rule: a directive naming a
// rule that does not exist suppresses nothing and is itself a finding.
package staleignore

//patlint:ignore nosuchrule directive kept after the rule was renamed; want(ignore): ignore directive names unknown rule "nosuchrule" (known: exact, nondet, maprange, sortslice, ctxbg, ctxloop, sharedmut, cancelloop, goleak, exactoverflow, ignore)
var Kept = 1

// A directive naming a real rule with a reason stays legal even when it
// currently suppresses nothing.
//
//patlint:ignore sortslice demonstration of a valid directive
var Fine = 2
