package main

// metricDef names one reported metric and its unit. The tables below are
// the names and units in BENCHMARK.json; every workload reports every
// metric of its table (see README.md for what each means per workload).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The p90 latency is in the
// report of every run but not gated: on the calibration host its spread
// over ten runs exceeded 25% (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"mesh.build_ms", "ms"},
	{"partition.build_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.validate_ms", "ms"},
	{"gnn.model_init_ms", "ms"},
	{"gnn.checkpoint_ms", "ms"},
	{"serve.start_ms", "ms"},
	{"gnn.first_call_ms", "ms"},
	{"gnn.step_ms", "ms"},
	{"gnn.step_self_ms", "ms"},
	{"gnn.forward_ms", "ms"},
	{"gnn.loss_ms", "ms"},
	{"gnn.backward_ms", "ms"},
	{"nn.allreduce_ms", "ms"},
	{"nn.optimizer_ms", "ms"},
	{"gnn.nmp_fwd_ms", "ms"},
	{"gnn.nmp_bwd_ms", "ms"},
	{"comm.halo_ms", "ms"},
	{"comm.halo_exposed_ms", "ms"},
	{"comm.msgs_per_step", "count"},
	{"comm.bytes_per_step", "bytes"},
	{"comm.allreduces_per_step", "count"},
	{"comm.halo_us", "us"},
	{"comm.msgs_per_predict.b1", "count"},
	{"comm.bytes_per_predict.b1", "bytes"},
	{"comm.msgs_per_predict.b8", "count"},
	{"comm.bytes_per_predict.b8", "bytes"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"gnn.train_gflops", "GFLOP/s"},
	{"gnn.train_peak_frac", "1"},
	{"gnn.predict_ms.b1", "ms"},
	{"gnn.predict_ms.b8", "ms"},
	{"gnn.rollout_step_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"loadgen.lag_max_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_frac", "1"},
}
