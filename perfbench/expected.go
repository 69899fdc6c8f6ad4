package main

// Digests of the rendered tables the figures workload must reproduce.
// The simulator is deterministic, so any change is a failure, not noise;
// a change that alters simulated results on purpose updates them.
const (
	expectFig2Digest = "d97640fa687e2533bba6aae3bc0cba8d9e42f23dccbc90ed88a85d8b6a98e12a"
	expectFig4Digest = "c96bafdeefceddf34891b11d2b57f9355b9ef6e13ff08175c64407f59ccf26e0"
)

// expectSweepDigest holds, per recorded trace (benchmark/core), the
// digest of its rendered 5-geometry × 4-policy replay sweep.
var expectSweepDigest = map[string]string{
	"espresso/ooo":     "89ef405945a97fc6a7f16b24c7d1f836a4816095302d82fd97ce4580a76341e6",
	"espresso/inorder": "1d2f06cf0fe838846783004a9323a339417dcf0c11efbb565bdd89459cf509ff",
	"ear/ooo":          "ee727ce36dfe81219fa9970f45d2746fcfe36271c1dda1ef1f12e806fe04694c",
	"ear/inorder":      "117423bdaf9bd685df9a68ea32fa5be3ed0a68f8865c12f94de65882bbe2babc",
}
