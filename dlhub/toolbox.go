package dlhub

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/servable"
)

// This file is the metadata toolbox of §IV-E: "The DLHub toolbox
// supports programmatic construction of JSON documents that specify
// publication and model-specific metadata that complies with
// DLHub-required schemas." Builders mirror the Python SDK's model
// description classes (KerasModel, PythonStaticMethod, ...).

// Package pairs a metadata document with uploaded model components.
type Package = servable.Package

// ModelBuilder assembles a publication document fluently.
type ModelBuilder struct {
	doc        schema.Document
	components map[string][]byte
	err        error
}

// DescribeKerasModel starts a Keras model description from serialized
// model bytes (the "model" component).
func DescribeKerasModel(name, title string, model []byte) *ModelBuilder {
	b := newBuilder(name, title, schema.TypeKeras)
	b.components["model"] = model
	b.doc.Servable.ModelComponents = map[string]string{"model": name + ".h5"}
	return b
}

// DescribeTensorFlowModel starts a TensorFlow model description.
func DescribeTensorFlowModel(name, title string, model []byte) *ModelBuilder {
	b := newBuilder(name, title, schema.TypeTensorFlow)
	b.components["model"] = model
	b.doc.Servable.ModelComponents = map[string]string{"model": name + ".pb"}
	return b
}

// DescribeSklearnModel starts a scikit-learn model description.
func DescribeSklearnModel(name, title string, model []byte) *ModelBuilder {
	b := newBuilder(name, title, schema.TypeScikitLearn)
	b.components["model"] = model
	b.doc.Servable.ModelComponents = map[string]string{"model": name + ".pkl"}
	return b
}

// DescribePythonStaticMethod starts a description of an arbitrary
// Python function ("module:function"), DLHub's most general servable.
func DescribePythonStaticMethod(name, title, entry string) *ModelBuilder {
	b := newBuilder(name, title, schema.TypePythonFunction)
	b.doc.Servable.Entry = entry
	return b
}

// DescribePipeline starts a multi-step pipeline description (§VI-D).
func DescribePipeline(name, title string, steps ...string) *ModelBuilder {
	b := newBuilder(name, title, schema.TypePipeline)
	b.doc.Servable.Steps = steps
	return b
}

func newBuilder(name, title string, t schema.ModelType) *ModelBuilder {
	return &ModelBuilder{
		doc: schema.Document{
			Publication: schema.Publication{Name: name, Title: title},
			Servable:    schema.Servable{Type: t},
		},
		components: map[string][]byte{},
	}
}

// WithAuthors sets the author list.
func (b *ModelBuilder) WithAuthors(authors ...string) *ModelBuilder {
	b.doc.Publication.Authors = authors
	return b
}

// WithDescription sets the free-text description.
func (b *ModelBuilder) WithDescription(d string) *ModelBuilder {
	b.doc.Publication.Description = d
	return b
}

// WithDomains tags the scientific domains.
func (b *ModelBuilder) WithDomains(domains ...string) *ModelBuilder {
	b.doc.Publication.Domains = domains
	return b
}

// VisibleTo sets the ACL principal list ("public", identity URNs,
// group URNs).
func (b *ModelBuilder) VisibleTo(principals ...string) *ModelBuilder {
	b.doc.Publication.VisibleTo = principals
	return b
}

// WithIdentifier attaches a persistent identifier (BYO DOI).
func (b *ModelBuilder) WithIdentifier(doi string) *ModelBuilder {
	b.doc.Publication.Identifier = doi
	return b
}

// WithCitation attaches citation text or BibTeX.
func (b *ModelBuilder) WithCitation(cite string) *ModelBuilder {
	b.doc.Publication.Citation = cite
	return b
}

// WithLicense sets the license identifier.
func (b *ModelBuilder) WithLicense(l string) *ModelBuilder {
	b.doc.Publication.License = l
	return b
}

// WithYear sets the publication year.
func (b *ModelBuilder) WithYear(y int) *ModelBuilder {
	b.doc.Publication.Year = y
	return b
}

// WithRelatedDatasets links training/test datasets.
func (b *ModelBuilder) WithRelatedDatasets(urls ...string) *ModelBuilder {
	b.doc.Publication.RelatedDatasets = urls
	return b
}

// WithDependency pins a package dependency baked into the servable
// container.
func (b *ModelBuilder) WithDependency(pkg, version string) *ModelBuilder {
	if b.doc.Servable.Dependencies == nil {
		b.doc.Servable.Dependencies = map[string]string{}
	}
	b.doc.Servable.Dependencies[pkg] = version
	return b
}

// WithInput declares the input type of the standard run interface.
func (b *ModelBuilder) WithInput(kind string, shape []int, description string) *ModelBuilder {
	b.doc.Servable.Input = schema.DataType{Kind: kind, Shape: shape, Description: description}
	return b
}

// WithOutput declares the output type.
func (b *ModelBuilder) WithOutput(kind string, description string) *ModelBuilder {
	b.doc.Servable.Output = schema.DataType{Kind: kind, Description: description}
	return b
}

// WithComponent attaches an extra uploaded artifact (weights, vocab...).
func (b *ModelBuilder) WithComponent(name string, data []byte) *ModelBuilder {
	b.components[name] = data
	if b.doc.Servable.ModelComponents == nil {
		b.doc.Servable.ModelComponents = map[string]string{}
	}
	b.doc.Servable.ModelComponents[name] = name
	return b
}

// WithHyperparameter records a training hyperparameter.
func (b *ModelBuilder) WithHyperparameter(name string, value any) *ModelBuilder {
	if b.doc.Servable.Hyperparameters == nil {
		b.doc.Servable.Hyperparameters = map[string]json.RawMessage{}
	}
	data, err := json.Marshal(value)
	if err != nil {
		b.err = fmt.Errorf("dlhub: hyperparameter %s: %w", name, err)
		return b
	}
	b.doc.Servable.Hyperparameters[name] = data
	return b
}

// Build validates and returns the package.
func (b *ModelBuilder) Build() (*Package, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := schema.Validate(&b.doc); err != nil {
		return nil, err
	}
	doc := b.doc // copy
	return &Package{Doc: &doc, Components: b.components}, nil
}

// --- local runner -------------------------------------------------------------

// LocalRunner executes a servable package locally, without any DLHub
// service — "functionality to execute DLHub models locally ... useful
// for model development and testing" (§IV-E).
type LocalRunner struct {
	sv *servable.Servable
}

// NewLocalRunner loads a package for local execution (native host).
func NewLocalRunner(pkg *Package) (*LocalRunner, error) {
	doc := *pkg.Doc
	if doc.ID == "" {
		doc.ID = "local/" + doc.Publication.Name
	}
	sv, err := servable.Load(&doc, pkg.Components, false)
	if err != nil {
		return nil, err
	}
	return &LocalRunner{sv: sv}, nil
}

// Run executes the servable on one input.
func (r *LocalRunner) Run(input any) (any, error) { return r.sv.Run(input) }

// Close releases resources.
func (r *LocalRunner) Close() { r.sv.Close() }

// --- shared client plumbing -----------------------------------------------------

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) addAuth(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

// call issues one v2 API request and decodes the envelope's data into
// out (if non-nil). Requests that are safe to repeat — GETs, and POSTs
// carrying an idempotency key — are retried under the client's
// RetryPolicy on transport errors and 5xx gateway/availability
// statuses, with exponential backoff and full jitter.
func (c *Client) call(ctx context.Context, method, path string, in, out any, idemKey string) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	policy := c.Retry.withDefaults()
	retryable := method == http.MethodGet || idemKey != ""
	attempts := policy.MaxAttempts
	if !retryable {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(policy.backoff(attempt)):
			}
		}
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if idemKey != "" {
			req.Header.Set(core.IdempotencyKeyHeader, idemKey)
		}
		c.addAuth(req)
		lastErr = c.doOnce(req, out)
		if lastErr == nil || !retryableError(lastErr) || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// retryableError reports whether a failure may be transient: transport
// errors and the gateway/availability statuses qualify; 4xx responses
// are definitive and never retried.
func retryableError(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
			return true
		}
		return false
	}
	// Non-API errors are transport-level (connection refused, reset...).
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// doOnce executes one request and decodes the v2 envelope.
func (c *Client) doOnce(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		} `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil || (env.Data == nil && env.Error == nil && env.RequestID == "") {
		// Not an envelope (proxy error page, plain-text 404...).
		if resp.StatusCode/100 != 2 {
			return &APIError{Status: resp.StatusCode, Code: "unknown", Message: string(bytes.TrimSpace(buf.Bytes()))}
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(buf.Bytes(), out)
	}
	if env.Error != nil {
		return &APIError{
			Status:    resp.StatusCode,
			Code:      env.Error.Code,
			Message:   env.Error.Message,
			Detail:    env.Error.Detail,
			RequestID: env.RequestID,
		}
	}
	if resp.StatusCode/100 != 2 {
		return &APIError{Status: resp.StatusCode, Code: "unknown", Message: "unexpected status", RequestID: env.RequestID}
	}
	if out == nil || env.Data == nil {
		return nil
	}
	return json.Unmarshal(env.Data, out)
}

// decodeErrorBody turns a non-200 response (e.g. on an SSE subscribe)
// into its typed error.
func decodeErrorBody(resp *http.Response) error {
	var buf bytes.Buffer
	buf.ReadFrom(io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck — best effort
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Detail  string `json:"detail"`
		} `json:"error"`
		RequestID string `json:"request_id"`
	}
	if json.Unmarshal(buf.Bytes(), &env) == nil && env.Error != nil {
		return &APIError{
			Status:    resp.StatusCode,
			Code:      env.Error.Code,
			Message:   env.Error.Message,
			Detail:    env.Error.Detail,
			RequestID: env.RequestID,
		}
	}
	return &APIError{Status: resp.StatusCode, Code: "unknown", Message: string(bytes.TrimSpace(buf.Bytes()))}
}

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // documents are always marshalable structs
	}
	return data
}
