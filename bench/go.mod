// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under blobindex so the parent's internal
// packages stay importable for the layer ladder.
module blobindex/bench

go 1.23

require blobindex v0.0.0

replace blobindex => ../
