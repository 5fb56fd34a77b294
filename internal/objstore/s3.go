package objstore

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// S3 is an ObjectStore over any S3-compatible HTTP service (AWS S3,
// MinIO, Ceph RGW). It is a deliberately small hand-rolled client — the
// repo carries no external dependencies — implementing exactly the five
// operations the tier needs: PUT object, ranged GET, HEAD, DELETE, and
// ListObjectsV2, signed with AWS Signature V4 (UNSIGNED-PAYLOAD for
// streaming puts). Bucket addressing is path-style
// (endpoint/bucket/key), which is what MinIO serves out of the box.
//
// Atomicity of Put comes from S3 semantics: an object becomes visible
// only when the PUT completes; a connection cut mid-upload leaves the
// key absent, never truncated.
type S3 struct {
	endpoint  string // scheme://host[:port], no trailing slash
	bucket    string
	region    string
	accessKey string
	secretKey string
	client    *http.Client
	// now is stubbed in tests for deterministic signatures.
	now func() time.Time
}

// S3Config configures OpenS3. Empty AccessKey means anonymous requests.
type S3Config struct {
	Endpoint  string
	Bucket    string
	Region    string
	AccessKey string
	SecretKey string
	// Client overrides the HTTP client (tests); nil uses a dedicated
	// client with sane timeouts.
	Client *http.Client
}

// OpenS3 builds the client; it performs no network I/O (a dead endpoint
// surfaces on first use, so a node can boot before its object store).
func OpenS3(cfg S3Config) (*S3, error) {
	if cfg.Endpoint == "" || cfg.Bucket == "" {
		return nil, fmt.Errorf("objstore: s3 backend needs endpoint and bucket")
	}
	u, err := url.Parse(cfg.Endpoint)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("objstore: bad s3 endpoint %q", cfg.Endpoint)
	}
	region := cfg.Region
	if region == "" {
		region = "us-east-1"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &S3{
		endpoint:  strings.TrimRight(cfg.Endpoint, "/"),
		bucket:    cfg.Bucket,
		region:    region,
		accessKey: cfg.AccessKey,
		secretKey: cfg.SecretKey,
		client:    client,
		now:       time.Now,
	}, nil
}

const unsignedPayload = "UNSIGNED-PAYLOAD"

// emptyPayloadHash is sha256("") — the payload hash for bodyless verbs.
const emptyPayloadHash = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

// sign applies AWS SigV4 headers to req. query must already be encoded
// into req.URL; payloadHash is the x-amz-content-sha256 value.
func (s *S3) sign(req *http.Request, payloadHash string) {
	t := s.now().UTC()
	amzDate := t.Format("20060102T150405Z")
	dateStamp := t.Format("20060102")
	req.Header.Set("x-amz-date", amzDate)
	req.Header.Set("x-amz-content-sha256", payloadHash)
	req.Header.Set("Host", req.URL.Host)
	if s.accessKey == "" {
		return // anonymous
	}

	// Canonical headers: host + every x-amz-* we set, sorted.
	type hdr struct{ k, v string }
	hdrs := []hdr{{"host", req.URL.Host}}
	for k, vs := range req.Header {
		lk := strings.ToLower(k)
		if strings.HasPrefix(lk, "x-amz-") {
			hdrs = append(hdrs, hdr{lk, strings.TrimSpace(vs[0])})
		}
	}
	sort.Slice(hdrs, func(i, j int) bool { return hdrs[i].k < hdrs[j].k })
	var canonHdrs, signedList strings.Builder
	for i, h := range hdrs {
		canonHdrs.WriteString(h.k + ":" + h.v + "\n")
		if i > 0 {
			signedList.WriteByte(';')
		}
		signedList.WriteString(h.k)
	}
	signedHeaders := signedList.String()

	canonQuery := canonicalQuery(req.URL.RawQuery)
	canonReq := strings.Join([]string{
		req.Method,
		req.URL.EscapedPath(),
		canonQuery,
		canonHdrs.String(),
		signedHeaders,
		payloadHash,
	}, "\n")

	scope := dateStamp + "/" + s.region + "/s3/aws4_request"
	toSign := strings.Join([]string{
		"AWS4-HMAC-SHA256",
		amzDate,
		scope,
		hexSHA256([]byte(canonReq)),
	}, "\n")

	kDate := hmacSHA256([]byte("AWS4"+s.secretKey), dateStamp)
	kRegion := hmacSHA256(kDate, s.region)
	kService := hmacSHA256(kRegion, "s3")
	kSigning := hmacSHA256(kService, "aws4_request")
	sig := hex.EncodeToString(hmacSHA256(kSigning, toSign))

	req.Header.Set("Authorization", fmt.Sprintf(
		"AWS4-HMAC-SHA256 Credential=%s/%s, SignedHeaders=%s, Signature=%s",
		s.accessKey, scope, signedHeaders, sig))
}

// canonicalQuery re-encodes a raw query in SigV4 canonical form (sorted
// keys, every key/value percent-encoded).
func canonicalQuery(raw string) string {
	if raw == "" {
		return ""
	}
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return raw
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		for _, v := range vals[k] {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(uriEscape(k) + "=" + uriEscape(v))
		}
	}
	return b.String()
}

// uriEscape is the AWS variant of percent-encoding: unreserved
// characters pass through, space is %20 (never '+'), everything else is
// uppercase-hex encoded.
func uriEscape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func hexSHA256(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func hmacSHA256(key []byte, msg string) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(msg))
	return m.Sum(nil)
}

// objectURL builds the path-style URL for key (each path segment
// escaped; '/' separators preserved so list prefixes group naturally).
func (s *S3) objectURL(key string) string {
	parts := strings.Split(key, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return s.endpoint + "/" + url.PathEscape(s.bucket) + "/" + strings.Join(parts, "/")
}

func (s *S3) do(req *http.Request, payloadHash string) (*http.Response, error) {
	s.sign(req, payloadHash)
	return s.client.Do(req)
}

// httpErr drains and closes the body, returning a descriptive error.
func httpErr(op, key string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return fmt.Errorf("objstore: s3 %s %s: %s: %s", op, key, resp.Status, strings.TrimSpace(string(body)))
}

// Put implements ObjectStore.
func (s *S3) Put(ctx context.Context, key string, r io.Reader, size int64) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, s.objectURL(key), r)
	if err != nil {
		return err
	}
	req.ContentLength = size
	resp, err := s.do(req, unsignedPayload)
	if err != nil {
		return fmt.Errorf("objstore: s3 put %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpErr("put", key, resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Sync implements ObjectStore: an S3 PUT is durable once it returns 200.
func (s *S3) Sync(context.Context, []string) error { return nil }

// ReadRange implements ObjectStore.
func (s *S3) ReadRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.objectURL(key), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	resp, err := s.do(req, emptyPayloadHash)
	if err != nil {
		return nil, fmt.Errorf("objstore: s3 get %s: %w", key, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent, http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%w: %s", ErrNotExist, key)
	default:
		return nil, httpErr("get", key, resp)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return nil, fmt.Errorf("objstore: s3 get %s [%d,+%d): %w", key, off, n, err)
	}
	return buf, nil
}

// Stat implements ObjectStore.
func (s *S3) Stat(ctx context.Context, key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, s.objectURL(key), nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.do(req, emptyPayloadHash)
	if err != nil {
		return 0, fmt.Errorf("objstore: s3 head %s: %w", key, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		size, perr := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("objstore: s3 head %s: bad Content-Length %q", key, resp.Header.Get("Content-Length"))
		}
		return size, nil
	case http.StatusNotFound:
		return 0, fmt.Errorf("%w: %s", ErrNotExist, key)
	default:
		return 0, fmt.Errorf("objstore: s3 head %s: %s", key, resp.Status)
	}
}

// Delete implements ObjectStore.
func (s *S3) Delete(ctx context.Context, key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.objectURL(key), nil)
	if err != nil {
		return err
	}
	resp, err := s.do(req, emptyPayloadHash)
	if err != nil {
		return fmt.Errorf("objstore: s3 delete %s: %w", key, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	// 204 on success; 404 means already absent — idempotent like FS.
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("objstore: s3 delete %s: %s", key, resp.Status)
	}
	return nil
}

// listResult is the subset of the ListObjectsV2 response we consume.
type listResult struct {
	XMLName               xml.Name `xml:"ListBucketResult"`
	IsTruncated           bool     `xml:"IsTruncated"`
	NextContinuationToken string   `xml:"NextContinuationToken"`
	Contents              []struct {
		Key string `xml:"Key"`
	} `xml:"Contents"`
}

// List implements ObjectStore via ListObjectsV2, following continuation
// tokens until the listing is complete.
func (s *S3) List(ctx context.Context, prefix string) ([]string, error) {
	var keys []string
	token := ""
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		if prefix != "" {
			q.Set("prefix", prefix)
		}
		if token != "" {
			q.Set("continuation-token", token)
		}
		u := s.endpoint + "/" + url.PathEscape(s.bucket) + "?" + q.Encode()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.do(req, emptyPayloadHash)
		if err != nil {
			return nil, fmt.Errorf("objstore: s3 list %s: %w", prefix, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, httpErr("list", prefix, resp)
		}
		var lr listResult
		derr := xml.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&lr)
		resp.Body.Close()
		if derr != nil {
			return nil, fmt.Errorf("objstore: s3 list %s: %w", prefix, derr)
		}
		for _, c := range lr.Contents {
			keys = append(keys, c.Key)
		}
		if !lr.IsTruncated || lr.NextContinuationToken == "" {
			break
		}
		token = lr.NextContinuationToken
	}
	sort.Strings(keys)
	return keys, nil
}
