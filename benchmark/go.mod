// The benchmark is a module of its own so the repository's build and
// tier-1 tests do not include it; the replace lets it build the
// system under test from the enclosing checkout.
module jsonlogic/benchmark

go 1.24

require jsonlogic v0.0.0

replace jsonlogic => ../
