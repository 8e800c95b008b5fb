package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/rpc"
)

// Transport exposes a Broker over the binary RPC protocol so that the
// Management Service (EC2) and Task Managers (Cooley) can share it
// across netsim-shaped links, as in the paper's deployment.

// Server wraps a broker for remote access.
type Server struct {
	broker *Broker
	rpc    *rpc.Server
}

// NewServer returns a broker RPC server ready to Serve.
func NewServer(b *Broker) *Server {
	s := &Server{broker: b, rpc: rpc.NewServer()}
	s.rpc.Handle("queue.push", s.handlePush)
	s.rpc.Handle("queue.pull", s.handlePull)
	s.rpc.Handle("queue.ack", s.handleAck)
	s.rpc.Handle("queue.reply", s.handleReply)
	s.rpc.Handle("queue.nack", s.handleNack)
	s.rpc.Handle("queue.delete", s.handleDelete)
	return s
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error { return s.rpc.Serve(l) }

// Close stops the RPC server (the broker itself is owned by the caller).
func (s *Server) Close() error { return s.rpc.Close() }

type pushReq struct {
	Queue         string `json:"queue"`
	Body          []byte `json:"body"`
	ReplyTo       string `json:"reply_to"`
	CorrelationID string `json:"correlation_id"`
	Tenant        string `json:"tenant,omitempty"`
}

type pullReq struct {
	Queue     string `json:"queue"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type pullResp struct {
	OK  bool    `json:"ok"`
	Msg Message `json:"msg"`
}

type ackReq struct {
	Queue string `json:"queue"`
	MsgID string `json:"msg_id"`
}

// replyReq carries what the broker needs to reply to and ack one
// delivered message (not its body), plus the optional pull of the
// consumer's next message.
type replyReq struct {
	Queue         string `json:"queue"`
	MsgID         string `json:"msg_id"`
	ReplyTo       string `json:"reply_to,omitempty"`
	CorrelationID string `json:"correlation_id,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Body          []byte `json:"body"`
	Next          string `json:"next,omitempty"`
	TimeoutMS     int64  `json:"timeout_ms,omitempty"`
}

func (s *Server) handlePush(_ context.Context, payload []byte) ([]byte, error) {
	var req pushReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad push request: %w", err)
	}
	id := s.broker.Push(req.Queue, req.Body, req.ReplyTo, req.CorrelationID, req.Tenant)
	return json.Marshal(map[string]string{"id": id})
}

func (s *Server) handlePull(_ context.Context, payload []byte) ([]byte, error) {
	var req pullReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad pull request: %w", err)
	}
	msg, ok := s.broker.Pull(req.Queue, time.Duration(req.TimeoutMS)*time.Millisecond)
	return json.Marshal(pullResp{OK: ok, Msg: msg})
}

func (s *Server) handleAck(_ context.Context, payload []byte) ([]byte, error) {
	var req ackReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad ack request: %w", err)
	}
	ok := s.broker.Ack(req.Queue, req.MsgID)
	return json.Marshal(map[string]bool{"ok": ok})
}

func (s *Server) handleReply(_ context.Context, payload []byte) ([]byte, error) {
	var req replyReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad reply request: %w", err)
	}
	orig := Message{ID: req.MsgID, Queue: req.Queue, ReplyTo: req.ReplyTo, CorrelationID: req.CorrelationID, Tenant: req.Tenant}
	msg, ok := s.broker.ReplyNext(orig, req.Body, req.Next, time.Duration(req.TimeoutMS)*time.Millisecond)
	return json.Marshal(pullResp{OK: ok, Msg: msg})
}

func (s *Server) handleNack(_ context.Context, payload []byte) ([]byte, error) {
	var req ackReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad nack request: %w", err)
	}
	ok := s.broker.Nack(req.Queue, req.MsgID)
	return json.Marshal(map[string]bool{"ok": ok})
}

func (s *Server) handleDelete(_ context.Context, payload []byte) ([]byte, error) {
	var req ackReq // only Queue is used
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("queue: bad delete request: %w", err)
	}
	ok := s.broker.DeleteQueue(req.Queue)
	return json.Marshal(map[string]bool{"ok": ok})
}

// Client gives remote components the Broker API over a (possibly
// netsim-shaped) connection.
type Client struct {
	rc *rpc.Client
}

// NewClient wraps an established connection to a queue Server.
func NewClient(conn net.Conn) *Client { return &Client{rc: rpc.NewClient(conn)} }

// Close tears down the connection.
func (c *Client) Close() error { return c.rc.Close() }

// Push enqueues remotely; it returns the broker-assigned message ID.
// tenant tags the fairness lane ("" = default).
func (c *Client) Push(queueName string, body []byte, replyTo, correlationID, tenant string) (string, error) {
	payload, err := json.Marshal(pushReq{Queue: queueName, Body: body, ReplyTo: replyTo, CorrelationID: correlationID, Tenant: tenant})
	if err != nil {
		return "", err
	}
	out, err := c.rc.Call(context.Background(), "queue.push", payload)
	if err != nil {
		return "", err
	}
	var resp map[string]string
	if err := json.Unmarshal(out, &resp); err != nil {
		return "", err
	}
	return resp["id"], nil
}

// Pull long-polls the remote queue. ok is false on timeout.
func (c *Client) Pull(queueName string, timeout time.Duration) (Message, bool, error) {
	return c.PullCtx(context.Background(), queueName, timeout)
}

// PullCtx is Pull bounded additionally by ctx: cancellation aborts the
// in-flight RPC instead of waiting out the poll timeout.
func (c *Client) PullCtx(ctx context.Context, queueName string, timeout time.Duration) (Message, bool, error) {
	payload, err := json.Marshal(pullReq{Queue: queueName, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return Message{}, false, err
	}
	// Give the RPC itself headroom beyond the poll timeout.
	ctx, cancel := context.WithTimeout(ctx, timeout+10*time.Second)
	defer cancel()
	out, err := c.rc.Call(ctx, "queue.pull", payload)
	if err != nil {
		return Message{}, false, err
	}
	var resp pullResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return Message{}, false, err
	}
	return resp.Msg, resp.OK, nil
}

// Ack confirms processing of a delivered message.
func (c *Client) Ack(queueName, msgID string) error {
	payload, _ := json.Marshal(ackReq{Queue: queueName, MsgID: msgID})
	_, err := c.rc.Call(context.Background(), "queue.ack", payload)
	return err
}

// Nack requeues a delivered message immediately.
func (c *Client) Nack(queueName, msgID string) error {
	payload, _ := json.Marshal(ackReq{Queue: queueName, MsgID: msgID})
	_, err := c.rc.Call(context.Background(), "queue.nack", payload)
	return err
}

// Reply is the consumer's whole per-message round trip in one RPC (see
// Broker.ReplyNext): it pushes body onto msg's ReplyTo queue, acks msg
// and, when next is non-empty, long-polls next for up to timeout and
// returns the message it claimed (ok false if none arrived). Push and
// ack happen in one broker call, so a transport failure cannot leave
// the reply sent but the request unacked (and re-run on redelivery).
func (c *Client) Reply(msg Message, body []byte, next string, timeout time.Duration) (Message, bool, error) {
	payload, err := json.Marshal(replyReq{
		Queue: msg.Queue, MsgID: msg.ID, ReplyTo: msg.ReplyTo, CorrelationID: msg.CorrelationID,
		Tenant: msg.Tenant, Body: body, Next: next, TimeoutMS: timeout.Milliseconds(),
	})
	if err != nil {
		return Message{}, false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout+10*time.Second)
	defer cancel()
	out, err := c.rc.Call(ctx, "queue.reply", payload)
	if err != nil {
		return Message{}, false, err
	}
	var resp pullResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return Message{}, false, err
	}
	return resp.Msg, resp.OK, nil
}

// Request pushes body and waits for the correlated reply.
func (c *Client) Request(queueName string, body []byte, timeout time.Duration) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reply, err := c.RequestCtx(ctx, queueName, body, "")
	switch {
	case err == nil:
		return reply, true, nil
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return nil, false, nil
	default:
		return nil, false, err
	}
}

// DeleteQueue removes an idle remote queue (reply-queue cleanup).
func (c *Client) DeleteQueue(name string) error {
	payload, _ := json.Marshal(ackReq{Queue: name})
	_, err := c.rc.Call(context.Background(), "queue.delete", payload)
	return err
}

// RequestCtx pushes body and waits for the correlated reply until ctx
// ends; a context termination is returned as ctx.Err() so callers can
// distinguish cancellation from deadline expiry or transport failure.
// The per-request reply queue is deleted on exit (best effort — the
// broker's sweeper collects strays).
func (c *Client) RequestCtx(ctx context.Context, queueName string, body []byte, tenant string) ([]byte, error) {
	replyQ := replyQueuePrefix + NewID()
	corr := NewID()
	if _, err := c.Push(queueName, body, replyQ, corr, tenant); err != nil {
		return nil, err
	}
	defer c.DeleteQueue(replyQ) //nolint:errcheck — sweeper backstops
	for {
		remaining := pollWindow
		if deadline, ok := ctx.Deadline(); ok {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return nil, context.DeadlineExceeded
			}
			if remaining > pollWindow {
				remaining = pollWindow
			}
		}
		msg, ok, err := c.PullCtx(ctx, replyQ, remaining)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		if !ok {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			continue
		}
		if err := c.Ack(replyQ, msg.ID); err != nil {
			return nil, err
		}
		if msg.CorrelationID == corr {
			return msg.Body, nil
		}
	}
}

// pollWindow bounds one remote reply poll so an unbounded-context
// RequestCtx still re-checks cancellation periodically.
const pollWindow = 30 * time.Second
