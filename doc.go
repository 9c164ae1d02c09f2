// Package sparkscore is a from-scratch Go reproduction of "SparkScore:
// Leveraging Apache Spark for Distributed Genomic Inference" (Bahmani,
// Sibley, Parsian, Owzar, Mueller; IPDPSW 2016).
//
// The repository implements both the paper's contribution — distributed
// resampling inference for genome-wide association studies on the basis of
// efficient score statistics and SKAT SNP-set aggregation — and the entire
// substrate the paper assumes: a Spark-like RDD engine with lineage,
// caching, shuffles and broadcast (internal/rdd), a YARN-style cluster and
// container model (internal/cluster), an HDFS stand-in (internal/dfs), and
// a virtual clock — counted work on each executor's core slots, kept by the
// scheduler in internal/rdd — that answers multi-node scaling questions on a
// single machine.
//
// Entry points:
//
//   - internal/core: the SparkScore algorithms (observed SKAT, permutation
//     and Monte Carlo resampling) — see examples/quickstart for usage.
//   - cmd/sparkscore: end-to-end analysis CLI.
//   - cmd/datagen: the paper's synthetic data generator (Section III).
//   - cmd/benchtab: regenerates every table and figure of the evaluation.
//   - cmd/sparktune: container-layout auto-tuning on the simulated cluster.
//
// The root package holds only this documentation and the benchmark suite
// (bench_test.go); the implementation lives under internal/.
package sparkscore
