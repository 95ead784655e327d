/**
 * @file
 * Observability activation: ObsConfig and the `COMET_TRACE` env knob.
 *
 * Two ways to turn tracing on:
 *
 *  - Programmatic: `obs::configure({.spans = true, .trace_path =
 *    "trace.json"})`, run the workload, then `obs::flushTrace()`.
 *  - Environment: set `COMET_TRACE=<out.json>` and run any binary
 *    whose entry path calls `obs::configureFromEnv()` (all bench
 *    binaries do, and so does every Server, ClusterRouter and
 *    engine measurement loop). The trace is
 *    exported automatically at process exit.
 *
 * The metrics registry needs no activation — counters are always
 * live; `MetricsRegistry::global().dumpText()` prints them.
 */
#pragma once

#include <string>

#include "comet/common/status.h"

namespace comet {
namespace obs {

/** Observability activation switches (programmatic twin of the
 * `COMET_TRACE` environment variable). */
struct ObsConfig {
    /** Arm span recording into the global TraceSession. */
    bool spans = false;
    /** When non-empty, flushTrace() (and the process-exit hook
     * installed by configureFromEnv()) writes Chrome trace-event
     * JSON here. */
    std::string trace_path;
};

/** Applies @p config: starts or stops the global TraceSession and
 * remembers the export path for flushTrace(). */
void configure(const ObsConfig &config);

/** The configuration currently applied. */
ObsConfig currentConfig();

/** Builds an ObsConfig from the environment: `COMET_TRACE=<path>`
 * enables spans with that export path; unset leaves everything off. */
ObsConfig configFromEnv();

/**
 * One-shot environment activation: the first call applies
 * configFromEnv() and, when a trace path is configured, registers a
 * process-exit hook that writes the trace. Later calls are no-ops,
 * so hot paths may call this freely.
 */
void configureFromEnv();

/** Stops the session and writes the configured trace file. OK (and
 * does nothing) when no trace_path is configured. */
Status flushTrace();

} // namespace obs
} // namespace comet
