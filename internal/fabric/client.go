package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mtvp/internal/fault"
)

// Client is the campaign-submission side of the fabric protocol: submit a
// batch of cells, poll until the fabric finishes them, fetch the results.
type Client struct {
	base  string
	token string
	hc    *http.Client
	// Poll is the status-poll period used by Wait (0 selects 500ms). Actual
	// sleeps are jittered ±50% from a fixed-seed stream.
	Poll time.Duration
}

// NewClient builds a client for the coordinator at base (e.g.
// "http://sweep-host:8100") authenticating with token.
func NewClient(base, token string) *Client {
	return &Client{base: base, token: token, hc: &http.Client{Timeout: 30 * time.Second}}
}

// do runs one JSON round trip. A nil in body means no payload; a nil out
// skips decoding. Status 204 returns errNoContent.
var errNoContent = fmt.Errorf("fabric: no content")

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fabric: marshal request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return errNoContent
	case resp.StatusCode >= 300:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("fabric: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit registers a campaign and returns its (deterministic) ID.
func (c *Client) Submit(ctx context.Context, spec CampaignSpec) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, PathCampaigns, spec, &resp)
	return resp, err
}

// Status fetches one campaign's live counters.
func (c *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.do(ctx, http.MethodGet, PathCampaigns+"/"+id, nil, &st)
	return st, err
}

// Results fetches a campaign's results (complete or not).
func (c *Client) Results(ctx context.Context, id string) (CampaignResults, error) {
	var res CampaignResults
	err := c.do(ctx, http.MethodGet, PathCampaigns+"/"+id+"/results", nil, &res)
	return res, err
}

// List fetches every campaign's live counters, in submission order.
func (c *Client) List(ctx context.Context) ([]CampaignStatus, error) {
	var out []CampaignStatus
	err := c.do(ctx, http.MethodGet, PathCampaigns, nil, &out)
	return out, err
}

// Timeline fetches a campaign's span timeline and straggler report; k
// bounds the tail-cell table (<=0 selects the server default).
func (c *Client) Timeline(ctx context.Context, id string, k int) (CampaignTimeline, error) {
	path := PathCampaigns + "/" + id + "/timeline"
	if k > 0 {
		path += "?k=" + strconv.Itoa(k)
	}
	var tl CampaignTimeline
	err := c.do(ctx, http.MethodGet, path, nil, &tl)
	return tl, err
}

// TraceJSON fetches a campaign's Chrome/Perfetto trace-event export as raw
// bytes (the caller writes it to a file for ui.perfetto.dev).
func (c *Client) TraceJSON(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathCampaigns+"/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("fabric: GET trace: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return io.ReadAll(resp.Body)
}

// Cancel stops a campaign.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, PathCampaigns+"/"+id, nil, nil)
}

// Fleet fetches the live worker view.
func (c *Client) Fleet(ctx context.Context) ([]WorkerStatus, error) {
	var fleet []WorkerStatus
	err := c.do(ctx, http.MethodGet, PathFleet, nil, &fleet)
	return fleet, err
}

// Wait polls the campaign until it leaves StateRunning (or ctx ends),
// calling onStatus (when non-nil) after every poll, then returns the final
// results. Transient network errors are retried — the whole point of the
// fabric is surviving exactly that.
func (c *Client) Wait(ctx context.Context, id string, onStatus func(CampaignStatus)) (CampaignResults, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	dice := fault.NewDice(0)
	for {
		st, err := c.Status(ctx, id)
		if err == nil {
			if onStatus != nil {
				onStatus(st)
			}
			if st.State != StateRunning {
				return c.Results(ctx, id)
			}
		} else if ctx.Err() != nil {
			return CampaignResults{}, ctx.Err()
		}
		t := time.NewTimer(jitter(dice, poll))
		select {
		case <-ctx.Done():
			t.Stop()
			return CampaignResults{}, ctx.Err()
		case <-t.C:
		}
	}
}
