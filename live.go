package conprobe

import (
	"net/http"

	"conprobe/internal/clocksync"
	"conprobe/internal/faultinject"
	"conprobe/internal/httpapi"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// Topology and time primitives, for assembling custom deployments.
type (
	// Site names a location: an agent region, the coordinator, or a
	// data center.
	Site = simnet.Site
	// Network is the wide-area latency and reachability model.
	Network = simnet.Network
	// Clock is the time source abstraction (virtual or real).
	Clock = vtime.Clock
	// Runtime is a clock plus concurrent-actor execution.
	Runtime = vtime.Runtime
	// SimRuntime is the virtual-time discrete-event scheduler.
	SimRuntime = vtime.Sim
	// RealRuntime executes on goroutines and the wall clock.
	RealRuntime = vtime.RealRuntime
	// SkewedClock is an agent's deliberately offset local clock.
	SkewedClock = clocksync.SkewedClock
	// ClockSyncResult is an estimated clock delta with its uncertainty.
	ClockSyncResult = clocksync.Result
	// ClockProbe reads a remote clock over the (real or simulated)
	// network.
	ClockProbe = clocksync.ProbeFunc
)

// The paper's deployment sites.
const (
	Oregon   = simnet.Oregon
	Tokyo    = simnet.Tokyo
	Ireland  = simnet.Ireland
	Virginia = simnet.Virginia
)

var (
	// DefaultTopology builds the paper's EC2 latency model.
	DefaultTopology = simnet.DefaultTopology
	// AgentSites lists the agent locations in the paper's order.
	AgentSites = simnet.AgentSites
	// NewSim builds a virtual-time scheduler. Actors started with its
	// Go or a Group run inside its Wait, which returns once all have
	// finished.
	NewSim = vtime.NewSim
	// NewSkewedClock offsets a base clock by a fixed skew.
	NewSkewedClock = clocksync.NewSkewedClock
	// EstimateClockDelta runs the Cristian-style delta estimation.
	EstimateClockDelta = clocksync.Estimate
)

// HTTP facade, for probing services across a real network.
type (
	// HTTPServer serves any Service over the JSON HTTP API.
	HTTPServer = httpapi.Server
	// HTTPServerConfig parameterizes the HTTP facade.
	HTTPServerConfig = httpapi.ServerConfig
	// HTTPClient implements Service against an httpapi server.
	HTTPClient = httpapi.Client
)

// NewHTTPServer wraps svc in an HTTP handler.
func NewHTTPServer(svc Service, cfg HTTPServerConfig) *HTTPServer {
	return httpapi.NewServer(svc, cfg)
}

// NewHTTPClient targets the API at baseURL.
func NewHTTPClient(baseURL, name string, hc *http.Client) (*HTTPClient, error) {
	return httpapi.NewClient(baseURL, name, hc)
}

// NewSimulatedService instantiates a Profile over the given clock and
// network; use a SimRuntime for virtual time or the real clock to serve
// live traffic (as cmd/consvc does).
func NewSimulatedService(clock Clock, net *Network, p Profile, seed int64) (Service, error) {
	return service.NewSimulated(clock, net, p, seed)
}

// Fault tolerance for the live-probing path: deterministic fault
// injection for drills, and retry/backoff/circuit-breaker middleware for
// collection campaigns that must survive flaky endpoints.
type (
	// FaultInjector wraps a Service with a deterministic fault mix.
	FaultInjector = faultinject.Injector
	// FaultConfig declares the injected fault mix.
	FaultConfig = faultinject.Config
	// FaultOutage is a scheduled full-failure window.
	FaultOutage = faultinject.Outage
	// ResilientService retries, bounds and circuit-breaks operations
	// against one endpoint.
	ResilientService = resilience.Service
	// RetryPolicy declares backoff for failed operations.
	RetryPolicy = resilience.RetryPolicy
	// BreakerConfig parameterizes the per-endpoint circuit breaker.
	BreakerConfig = resilience.BreakerConfig
	// CircuitBreaker is a per-endpoint breaker.
	CircuitBreaker = resilience.Breaker
)

var (
	// NewFaultInjector wraps a service in the configured fault mix.
	NewFaultInjector = faultinject.New
	// WrapResilient applies the retry/backoff/breaker middleware.
	WrapResilient = resilience.Wrap
	// WithBreaker adds a circuit breaker to WrapResilient.
	WithBreaker = resilience.WithBreaker
	// WithDeadline bounds each operation's total retry time.
	WithDeadline = resilience.WithDeadline
	// ErrInjected marks faults produced by a FaultInjector.
	ErrInjected = faultinject.ErrInjected
	// ErrCircuitOpen marks operations skipped because a breaker was
	// open.
	ErrCircuitOpen = resilience.ErrOpen
	// HardenedHTTPServer builds an http.Server with conservative
	// timeouts for serving the JSON API.
	HardenedHTTPServer = httpapi.Hardened
)
