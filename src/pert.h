// Umbrella header: the full public API of the PERT library.
//
//   #include <pert.h>            // everything
//
// or include subsystem headers individually:
//
//   sim/        event scheduler, timers, RNG
//   net/        packets, nodes, links, queues (DropTail / RED / PI), Network
//   tcp/        TCP SACK sender + sink, Vegas, CUBIC, DCTCP
//   core/       PERT itself (srtt_0.99, response curves, PERT, PERT/PI and
//               PERT/REM)
//   traffic/    web-session and CBR generators
//   stats/      Jain index, histograms, EWMA, time-weighted averages
//   predictors/ congestion-predictor study framework (Section 2)
//   fluid/      fluid model, Theorem 1/2 checkers, DDE integrator
//   exp/        scenario builders (dumbbell, multi-bottleneck) and metrics
#pragma once

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "core/pi_emulation.h"
#include "core/rem_emulation.h"
#include "core/response_curve.h"
#include "core/sampled_pert.h"
#include "core/srtt_estimator.h"
#include "exp/cli.h"
#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "exp/scheme.h"
#include "exp/table.h"
#include "fluid/dde.h"
#include "fluid/pert_model.h"
#include "net/avq_queue.h"
#include "net/fault_queue.h"
#include "net/impairment.h"
#include "net/link.h"
#include "net/network.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/pi_queue.h"
#include "net/queue.h"
#include "net/red_queue.h"
#include "net/rem_queue.h"
#include "predictors/classic.h"
#include "predictors/extra.h"
#include "predictors/predictor.h"
#include "predictors/trace_io.h"
#include "predictors/trace_recorder.h"
#include "sim/errors.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "sim/time.h"
#include "sim/timer.h"
#include "sim/watchdog.h"
#include "stats/stats.h"
#include "tcp/tcp_config.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"
#include "tcp/vegas.h"
#include "traffic/cbr_source.h"
#include "traffic/web_session.h"
