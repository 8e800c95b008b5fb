// Package queue implements the ZeroMQ-style task conduit of §IV-A: the
// Management Service "uses a ZeroMQ queue to send tasks to registered
// Task Managers for execution. The queue provides a reliable messaging
// model that ensures tasks are received and executed."
//
// The broker hosts named queues. Producers push messages; consumers pull
// and must acknowledge within a visibility timeout or the message is
// redelivered (at-least-once semantics). Request/reply is layered on top
// with per-message ReplyTo queues, mirroring the paper's flow where Task
// Managers "retrieve waiting tasks from the queue, unpackage the
// request, execute the task, and return the results via the same queue."
// A consumer's reply, the ack of its request and the pull of its next
// message travel as one call (ReplyNext; the queue.reply RPC remotely),
// so a busy remote consumer costs one round trip per message.
//
// Fairness: each named queue is internally striped into per-tenant
// lanes, drained by deficit round-robin (DRR) weighted by the tenant's
// priority class (SetLaneWeight). A push carries an optional tenant
// tag; untagged messages land in the default lane (""), and a queue
// that only ever sees one lane degenerates to exactly the old single
// FIFO — order, redelivery, and Drop/Purge semantics unchanged. With
// multiple lanes, a flood from one tenant can deepen only its own
// lane: the DRR scheduler keeps serving other lanes at their weighted
// share, so a quiet tenant's latency is bounded by its own backlog,
// not the aggressor's.
package queue

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// Message is one queued envelope.
type Message struct {
	// ID is assigned by the broker on enqueue.
	ID string `json:"id"`
	// Queue the message was published to.
	Queue string `json:"queue"`
	// ReplyTo names the queue where a reply should be pushed ("" if
	// no reply is expected).
	ReplyTo string `json:"reply_to,omitempty"`
	// CorrelationID links a reply to its request.
	CorrelationID string `json:"correlation_id,omitempty"`
	// Tenant is the fairness lane tag ("" = default lane). Redelivery
	// returns a message to its own lane.
	Tenant string `json:"tenant,omitempty"`
	// Body is the opaque payload.
	Body []byte `json:"body"`
	// Attempt counts deliveries (1 on first delivery).
	Attempt int `json:"attempt"`
	// enqueued is stamped by Push; the sweeper uses it to expire
	// stranded replies on abandoned reply queues.
	enqueued time.Time
}

// replyQueuePrefix names the per-request reply queues; the sweeper
// garbage-collects them (see sweep) so canceled or completed requests
// do not leak queue state.
const replyQueuePrefix = "reply."

// NewID returns a random 128-bit hex identifier.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("queue: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

type pendingMsg struct {
	msg      Message
	deadline time.Time
}

// lane is one tenant's FIFO within a named queue. deficit is the DRR
// byte^W message credit: each round-robin visit tops it up by the
// lane's weight, and each dequeue spends one.
type lane struct {
	ready   *list.List // of Message
	deficit int
}

// namedQueue holds per-tenant ready lanes plus the queue-wide pending
// set and parked consumers. Invariant: every lane present in lanes /
// order has at least one ready message — lanes are created on first
// push and removed the moment they drain, so the DRR rotation never
// spins over empty lanes and a single-tenant queue is one FIFO.
type namedQueue struct {
	mu      sync.Mutex
	lanes   map[string]*lane
	order   []string // DRR visit order (lane creation order)
	rr      int      // index into order of the lane being served
	pending map[string]*pendingMsg
	waiters *list.List // of chan Message
}

func newNamedQueue() *namedQueue {
	return &namedQueue{
		lanes:   make(map[string]*lane),
		pending: make(map[string]*pendingMsg),
		waiters: list.New(),
	}
}

// laneLocked returns the tag's lane, creating and enrolling it in the
// rotation if needed. q.mu held.
func (q *namedQueue) laneLocked(tag string) *lane {
	ln, ok := q.lanes[tag]
	if !ok {
		ln = &lane{ready: list.New()}
		q.lanes[tag] = ln
		q.order = append(q.order, tag)
	}
	return ln
}

// removeLaneLocked drops a drained lane from the rotation, keeping rr
// pointed at the same next-up lane. q.mu held.
func (q *namedQueue) removeLaneLocked(tag string) {
	delete(q.lanes, tag)
	for i, name := range q.order {
		if name == tag {
			q.order = append(q.order[:i], q.order[i+1:]...)
			if i < q.rr {
				q.rr--
			}
			break
		}
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
}

// readyLenLocked sums ready messages across lanes. q.mu held.
func (q *namedQueue) readyLenLocked() int {
	n := 0
	for _, ln := range q.lanes {
		n += ln.ready.Len()
	}
	return n
}

// Broker is an in-process message broker. Remote access goes through
// the rpc-based Endpoint in transport.go; in-process components (tests,
// single-binary deployments) use it directly.
type Broker struct {
	mu     sync.RWMutex
	queues map[string]*namedQueue

	visibility time.Duration
	stopSweep  chan struct{}
	sweepOnce  sync.Once

	// fairMu guards the broker-wide fairness state: configured lane
	// weights and the per-tenant dequeue counters (the stats
	// observable for dequeue share). It is a leaf lock — acquired
	// under q.mu, never the other way around.
	fairMu     sync.Mutex
	laneWeight map[string]int
	dequeues   map[string]uint64
}

// NewBroker creates a broker whose unacknowledged deliveries become
// visible again after the given timeout.
func NewBroker(visibility time.Duration) *Broker {
	if visibility <= 0 {
		visibility = 30 * time.Second
	}
	b := &Broker{
		queues:     make(map[string]*namedQueue),
		visibility: visibility,
		stopSweep:  make(chan struct{}),
		laneWeight: make(map[string]int),
		dequeues:   make(map[string]uint64),
	}
	go b.sweeper()
	return b
}

// Close stops the redelivery sweeper.
func (b *Broker) Close() { b.sweepOnce.Do(func() { close(b.stopSweep) }) }

// SetLaneWeight sets the DRR quantum for a tenant lane across every
// queue (weights are a tenant property, not a queue property). Weights
// below 1 are clamped to 1; unconfigured lanes weigh 1.
func (b *Broker) SetLaneWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	b.fairMu.Lock()
	b.laneWeight[tenant] = weight
	b.fairMu.Unlock()
}

// laneWeightOf resolves a lane's DRR quantum (default 1).
func (b *Broker) laneWeightOf(tenant string) int {
	b.fairMu.Lock()
	defer b.fairMu.Unlock()
	if w, ok := b.laneWeight[tenant]; ok {
		return w
	}
	return 1
}

// noteDequeue counts one delivery on a tenant lane.
func (b *Broker) noteDequeue(tenant string) {
	b.fairMu.Lock()
	b.dequeues[tenant]++
	b.fairMu.Unlock()
}

// LaneDequeues snapshots the per-tenant delivery counters (reply-queue
// deliveries land on the requesting tenant's own tag, or the default
// lane).
func (b *Broker) LaneDequeues() map[string]uint64 {
	b.fairMu.Lock()
	defer b.fairMu.Unlock()
	out := make(map[string]uint64, len(b.dequeues))
	for t, n := range b.dequeues {
		out[t] = n
	}
	return out
}

func (b *Broker) queue(name string) *namedQueue {
	b.mu.RLock()
	q, ok := b.queues[name]
	b.mu.RUnlock()
	if ok {
		return q
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if q, ok = b.queues[name]; ok {
		return q
	}
	q = newNamedQueue()
	b.queues[name] = q
	return q
}

// Push enqueues body on the named queue and returns the message ID.
// tenant tags the fairness lane ("" = default).
func (b *Broker) Push(queueName string, body []byte, replyTo, correlationID, tenant string) string {
	msg := Message{
		ID:            NewID(),
		Queue:         queueName,
		ReplyTo:       replyTo,
		CorrelationID: correlationID,
		Tenant:        tenant,
		Body:          body,
		enqueued:      time.Now(),
	}
	b.deliver(b.queue(queueName), msg)
	return msg.ID
}

// DeleteQueue removes an idle queue — no ready messages, no in-flight
// deliveries, no parked consumers — from the broker, reporting whether
// it was removed. The ready check matters: a reply delivered between a
// requester's polls must not be deleted with the queue (the requester
// would then wait out its full deadline for work that completed).
// Request sides call it on their reply queues when done; a reply
// racing the deletion simply recreates the queue and the sweeper
// collects it.
func (b *Broker) DeleteQueue(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.queues[name]
	if !ok {
		return false
	}
	q.mu.Lock()
	idle := len(q.lanes) == 0 && len(q.pending) == 0 && q.waiters.Len() == 0
	q.mu.Unlock()
	if !idle {
		return false
	}
	delete(b.queues, name)
	return true
}

func (b *Broker) deliver(q *namedQueue, msg Message) {
	q.mu.Lock()
	// Hand directly to a waiting consumer when one is parked. The
	// queue is necessarily empty then (a waiter only parks on an empty
	// queue), so fairness has nothing to arbitrate — but the delivery
	// still counts toward the lane's dequeue share.
	for q.waiters.Len() > 0 {
		front := q.waiters.Front()
		ch := front.Value.(chan Message)
		q.waiters.Remove(front)
		msg.Attempt++
		q.pending[msg.ID] = &pendingMsg{msg: msg, deadline: time.Now().Add(b.visibility)}
		q.mu.Unlock()
		b.noteDequeue(msg.Tenant)
		ch <- msg
		return
	}
	q.laneLocked(msg.Tenant).ready.PushBack(msg)
	q.mu.Unlock()
}

// popLocked removes and returns the next ready message under deficit
// round-robin: the rotation stays on one lane until its deficit (topped
// up by the lane weight on each visit) is spent or the lane drains,
// then advances. q.mu held; reports false on an empty queue.
func (b *Broker) popLocked(q *namedQueue) (Message, bool) {
	if len(q.order) == 0 {
		return Message{}, false
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
	tag := q.order[q.rr]
	ln := q.lanes[tag]
	if ln.deficit <= 0 {
		ln.deficit = b.laneWeightOf(tag)
	}
	msg := ln.ready.Remove(ln.ready.Front()).(Message)
	ln.deficit--
	switch {
	case ln.ready.Len() == 0:
		// Drained lanes leave the rotation (and forfeit leftover
		// credit — an idle tenant must not bank a burst).
		q.removeLaneLocked(tag)
	case ln.deficit <= 0:
		q.rr++
		if q.rr >= len(q.order) {
			q.rr = 0
		}
	}
	return msg, true
}

// Pull waits up to timeout for a message on the named queue. ok is false
// on timeout. Delivered messages must be Ack'd before the visibility
// timeout or they are requeued.
func (b *Broker) Pull(queueName string, timeout time.Duration) (Message, bool) {
	return b.PullCtx(context.Background(), queueName, timeout)
}

// PullCtx is Pull bounded additionally by ctx: it returns early (ok
// false) when ctx ends, so a canceled consumer never sits out its full
// poll timeout. A timeout <= 0 means "bounded by ctx alone"; with a
// background ctx that degenerates to the old non-blocking poll.
func (b *Broker) PullCtx(ctx context.Context, queueName string, timeout time.Duration) (Message, bool) {
	q := b.queue(queueName)
	q.mu.Lock()
	if msg, ok := b.popLocked(q); ok {
		msg.Attempt++
		q.pending[msg.ID] = &pendingMsg{msg: msg, deadline: time.Now().Add(b.visibility)}
		q.mu.Unlock()
		b.noteDequeue(msg.Tenant)
		return msg, true
	}
	if timeout <= 0 && ctx.Done() == nil {
		q.mu.Unlock()
		return Message{}, false
	}
	ch := make(chan Message, 1)
	elem := q.waiters.PushBack(ch)
	q.mu.Unlock()

	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	abort := func() (Message, bool) {
		q.mu.Lock()
		// Remove our waiter; a concurrent deliver may have already
		// removed it and sent — check the channel once more.
		q.waiters.Remove(elem)
		q.mu.Unlock()
		select {
		case msg := <-ch:
			return msg, true
		default:
			return Message{}, false
		}
	}
	select {
	case msg := <-ch:
		return msg, true
	case <-timerC:
		return abort()
	case <-ctx.Done():
		return abort()
	}
}

// Drop removes a not-yet-delivered message from a queue's ready lanes,
// reporting whether it was found. A canceled requester uses it to
// withdraw its task before any consumer picks it up; once delivered
// (pending) the message is the consumer's and Drop reports false.
func (b *Broker) Drop(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	for tag, ln := range q.lanes {
		for e := ln.ready.Front(); e != nil; e = e.Next() {
			if e.Value.(Message).ID == msgID {
				ln.ready.Remove(e)
				if ln.ready.Len() == 0 {
					q.removeLaneLocked(tag)
				}
				return true
			}
		}
	}
	return false
}

// Purge withdraws every message from a queue — ready AND delivered-but-
// unacknowledged — returning how many were removed. It is the
// dead-consumer cleanup: when a Task Manager is declared lost or
// deregistered, tasks it claimed (pulled, never acked) must not sit out
// the visibility timeout only to be redelivered into a queue nobody
// consumes, and tasks still ready must not strand their requesters.
// Parked consumers are left in place: a revived consumer simply resumes
// on an empty queue.
func (b *Broker) Purge(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.readyLenLocked() + len(q.pending)
	q.lanes = make(map[string]*lane)
	q.order = nil
	q.rr = 0
	q.pending = make(map[string]*pendingMsg)
	return n
}

// Ack confirms processing of a delivered message, removing it from the
// redelivery set. It reports whether the message was pending.
func (b *Broker) Ack(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[msgID]; !ok {
		return false
	}
	delete(q.pending, msgID)
	return true
}

// Nack returns a delivered message to the queue (its own lane)
// immediately.
func (b *Broker) Nack(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	p, ok := q.pending[msgID]
	if !ok {
		q.mu.Unlock()
		return false
	}
	delete(q.pending, msgID)
	q.mu.Unlock()
	b.deliver(q, p.msg)
	return true
}

// Queues reports how many named queues the broker currently holds —
// the observability hook for reply-queue garbage collection.
func (b *Broker) Queues() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.queues)
}

// Len reports ready (not in-flight) messages on a queue, across all
// lanes.
func (b *Broker) Len(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.readyLenLocked()
}

// LaneLen reports ready messages on one tenant lane of a queue.
func (b *Broker) LaneLen(queueName, tenant string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	if ln, ok := q.lanes[tenant]; ok {
		return ln.ready.Len()
	}
	return 0
}

// InFlight reports delivered-but-unacknowledged messages on a queue.
func (b *Broker) InFlight(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// sweeper periodically requeues messages whose visibility expired.
func (b *Broker) sweeper() {
	interval := b.visibility / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stopSweep:
			return
		case <-ticker.C:
			b.sweep(time.Now())
		}
	}
}

func (b *Broker) sweep(now time.Time) {
	b.mu.RLock()
	queues := make(map[string]*namedQueue, len(b.queues))
	for name, q := range b.queues {
		queues[name] = q
	}
	b.mu.RUnlock()
	staleCutoff := now.Add(-b.visibility)
	for name, q := range queues {
		var expired []Message
		isReply := strings.HasPrefix(name, replyQueuePrefix)
		q.mu.Lock()
		for id, p := range q.pending {
			if now.After(p.deadline) {
				expired = append(expired, p.msg)
				delete(q.pending, id)
			}
		}
		if isReply {
			// Reply queues are single-consumer and short-lived: a ready
			// reply older than the visibility window means its requester
			// is gone (canceled after the task was pulled) — drop it so
			// abandoned replies cannot accumulate.
			for tag, ln := range q.lanes {
				for e := ln.ready.Front(); e != nil; {
					next := e.Next()
					if e.Value.(Message).enqueued.Before(staleCutoff) {
						ln.ready.Remove(e)
					}
					e = next
				}
				if ln.ready.Len() == 0 {
					q.removeLaneLocked(tag)
				}
			}
		}
		empty := len(q.lanes) == 0 && len(q.pending) == 0 && q.waiters.Len() == 0
		q.mu.Unlock()
		for _, msg := range expired {
			b.deliver(q, msg)
		}
		if isReply && empty && len(expired) == 0 {
			// GC the queue itself once fully idle (its requester either
			// finished — and deleted it already — or abandoned it).
			b.DeleteQueue(name)
		}
	}
}

// Request pushes body on queueName with a fresh reply queue, then waits
// for the reply. It is the synchronous-invocation primitive of §IV-A.
func (b *Broker) Request(queueName string, body []byte, timeout time.Duration) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reply, err := b.RequestCtx(ctx, queueName, body, "")
	return reply, err == nil
}

// RequestCtx is Request bounded by ctx instead of a flat timeout: the
// wait ends as soon as ctx is canceled or its deadline passes, and the
// error distinguishes the two (ctx.Err()). A ctx with neither deadline
// nor cancel waits indefinitely (polling in visibility-sized windows).
// On early termination the request message is withdrawn from the task
// queue when no consumer has pulled it yet, so canceled work never
// executes needlessly; the per-request reply queue is deleted on every
// exit path (the sweeper collects it if a straggling reply recreates
// it). tenant tags the request's fairness lane on the task queue.
func (b *Broker) RequestCtx(ctx context.Context, queueName string, body []byte, tenant string) ([]byte, error) {
	replyQ := replyQueuePrefix + NewID()
	corr := NewID()
	msgID := b.Push(queueName, body, replyQ, corr, tenant)
	defer b.DeleteQueue(replyQ)
	// With no Done channel, PullCtx needs a finite poll window to block
	// at all; loop forever in visibility-sized slices.
	window := time.Duration(0)
	if ctx.Done() == nil {
		window = b.visibility
	}
	for {
		if err := ctx.Err(); err != nil {
			b.Drop(queueName, msgID)
			return nil, err
		}
		msg, ok := b.PullCtx(ctx, replyQ, window)
		if !ok {
			if window > 0 && ctx.Err() == nil {
				continue // unbounded wait: poll again
			}
			b.Drop(queueName, msgID)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.DeadlineExceeded
		}
		b.Ack(replyQ, msg.ID)
		if msg.CorrelationID == corr {
			return msg.Body, nil
		}
	}
}

// Reply pushes a response for msg onto its ReplyTo queue and acks the
// original. It is a no-op for messages with no ReplyTo. The reply
// inherits the request's tenant tag, so reply-side dequeues are billed
// to the same lane (a reply queue has one consumer — fairness never
// arbitrates it).
func (b *Broker) Reply(msg Message, body []byte) {
	if msg.ReplyTo != "" {
		b.Push(msg.ReplyTo, body, "", msg.CorrelationID, msg.Tenant)
	}
	b.Ack(msg.Queue, msg.ID)
}

// ReplyNext is a consumer's whole per-message step: Reply to msg (push
// body onto its ReplyTo queue and ack it), then, when next is
// non-empty, Pull the consumer's next message from that queue, waiting
// up to timeout. The returned message is claimed like any Pull
// delivery: unacked, it is redelivered after the visibility timeout.
// With an empty next nothing is pulled and ok is false.
func (b *Broker) ReplyNext(msg Message, body []byte, next string, timeout time.Duration) (Message, bool) {
	b.Reply(msg, body)
	if next == "" {
		return Message{}, false
	}
	return b.Pull(next, timeout)
}
