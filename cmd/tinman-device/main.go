// Command tinman-device demonstrates the device side of TinMan against a
// live tinman-node over real TCP. It plays a complete login: establish a
// TLS session with a (local, in-process) origin server, send the non-secret
// part of the flow itself, and hand the session state to the trusted node
// so the node reseals the cor-bearing record — the device never holds the
// secret.
//
// The cor is set up once, in the safe environment (§2.3), when the node
// boots: cors.json beside this file registers the password "demo-pw",
// whitelists demo-bank.example and binds it to this app's hash. Start a
// node with it first:
//
//	tinman-node -listen 127.0.0.1:7443 -cors cmd/tinman-device/cors.json &
//	tinman-device -node 127.0.0.1:7443
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tinman/internal/nodeproto"
	"tinman/internal/tlssim"
)

func main() {
	var (
		nodeAddr = flag.String("node", "127.0.0.1:7443", "trusted node address")
		deviceID = flag.String("device", "galaxy-nexus-1", "device identity")
	)
	flag.Parse()
	if err := run(*nodeAddr, *deviceID); err != nil {
		fmt.Fprintf(os.Stderr, "tinman-device: %v\n", err)
		os.Exit(1)
	}
}

func run(nodeAddr, deviceID string) error {
	// The reconnecting client survives node restarts and transient network
	// failures: requests carry IDs the node dedups, so retries after an
	// ambiguous failure never double-execute.
	node := nodeproto.DialReconnect(nodeAddr, 5*time.Second, nodeproto.ReconnectConfig{
		ClientID: deviceID,
	})
	defer node.Close()
	if err := node.Ping(); err != nil {
		return fmt.Errorf("pinging node: %v", err)
	}
	fmt.Printf("connected to trusted node at %s\n", nodeAddr)

	// The device fetches the catalog: descriptions and placeholders only.
	// The node registered the cor and bound it to appHash at boot.
	const corID, appHash = "demo-pw", "demo-app-hash-1"
	catalog, err := node.Catalog()
	if err != nil {
		return err
	}
	var placeholder string
	for _, e := range catalog {
		if e.ID == corID {
			placeholder = e.Placeholder
		}
	}
	if placeholder == "" {
		return fmt.Errorf("cor %q is not in the node's catalog; start tinman-node with -cors cmd/tinman-device/cors.json", corID)
	}
	fmt.Printf("device catalog shows %d cor(s); placeholder for ours: %q\n", len(catalog), placeholder)

	// An in-process origin server stands in for the bank: a TLS session
	// pair with the device.
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return err
	}
	device, origin, _, err := tlssim.Handshake(
		tlssim.ClientConfig{MinVersion: tlssim.TLS11},
		tlssim.ServerConfig{Key: key})
	if err != nil {
		return err
	}
	fmt.Printf("TLS session with origin established (%v, %v)\n", device.Version(), device.Suite())

	// Non-secret traffic flows directly from the device.
	rec, err := device.Seal(tlssim.TypeApplicationData, []byte("GET /login HTTP/1.1"))
	if err != nil {
		return err
	}
	if _, _, _, err := origin.Open(rec); err != nil {
		return err
	}
	fmt.Println("device sent the non-secret request itself")

	// The secret send: export session state, probe the placeholder record's
	// length, and ask the node to reseal with the real cor.
	probe, err := tlssim.Resume(device.Export(), nil)
	if err != nil {
		return err
	}
	probeRec, err := probe.Seal(tlssim.TypeMarkedCor, []byte(placeholder))
	if err != nil {
		return err
	}
	sealed, err := node.Reseal(corID, device.Export(), appHash, deviceID, "demo-bank.example", "", len(probeRec))
	if err != nil {
		return fmt.Errorf("reseal: %v", err)
	}
	typ, plaintext, _, err := origin.Open(sealed)
	if err != nil {
		return fmt.Errorf("origin rejected the resealed record: %v", err)
	}
	fmt.Printf("origin accepted the node-sealed record (type %d) and decrypted: %q\n", typ, plaintext)
	if string(plaintext) != "correct horse battery" {
		return fmt.Errorf("origin saw %q, not the real secret", plaintext)
	}
	if strings.Contains(string(plaintext), "TINMAN-PLACEHOLDER") {
		return fmt.Errorf("placeholder leaked to origin")
	}

	// Show that policy bites: a rogue domain is refused.
	if _, err := node.Reseal(corID, device.Export(), appHash, deviceID, "evil.example", "", 0); err == nil {
		return fmt.Errorf("rogue domain was not denied")
	} else {
		fmt.Printf("rogue domain denied as expected: %v\n", err)
	}

	// The audit trail.
	entries, err := node.AuditLog(corID, "")
	if err != nil {
		return err
	}
	fmt.Printf("audit log (%d entries):\n", len(entries))
	for _, e := range entries {
		fmt.Printf("  #%d %s cor=%s domain=%s %s %s\n", e.Seq, e.Time, e.CorID, e.Domain, e.Outcome, e.Detail)
	}
	fmt.Println("demo complete: the secret existed only on the trusted node and at the origin")
	return nil
}
