package tpcw

import (
	"fmt"
	"strings"

	"mtcache/internal/core"
	"mtcache/internal/wire"
)

// ProcedureDDL holds every stored procedure of the benchmark. The paper's
// kit used 29 procedures; this implementation's interactions need the 26
// below. All application logic that touches the database goes through them
// (paper §6.1: "all database requests are implemented as SQL Server stored
// procedures").
var ProcedureDDL = []string{
	// --- customer/session ---
	`CREATE PROCEDURE getName @c_id INT AS
		SELECT c_fname, c_lname FROM customer WHERE c_id = @c_id`,

	`CREATE PROCEDURE getCustomer @uname VARCHAR(20) AS
		SELECT c_id, c_uname, c_passwd, c_fname, c_lname, c_discount, c_balance, c_email
		FROM customer WHERE c_uname = @uname`,

	`CREATE PROCEDURE getPassword @uname VARCHAR(20) AS
		SELECT c_passwd FROM customer WHERE c_uname = @uname`,

	`CREATE PROCEDURE getCDiscount @c_id INT AS
		SELECT c_discount FROM customer WHERE c_id = @c_id`,

	`CREATE PROCEDURE updateLogin @c_id INT, @t DATETIME AS
		UPDATE customer SET c_last_login = @t WHERE c_id = @c_id`,

	`CREATE PROCEDURE createNewCustomer @c_id INT, @uname VARCHAR(20), @passwd VARCHAR(20),
			@fname VARCHAR(17), @lname VARCHAR(17), @addr_id INT, @email VARCHAR(50), @t DATETIME AS
		INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_addr_id, c_email,
			c_since, c_last_login, c_discount, c_balance, c_ytd_pmt)
		VALUES (@c_id, @uname, @passwd, @fname, @lname, @addr_id, @email, @t, @t, 0.1, 0, 0)`,

	`CREATE PROCEDURE updateCustomerBalance @c_id INT, @amt FLOAT AS
		UPDATE customer SET c_balance = c_balance + @amt WHERE c_id = @c_id`,

	// --- catalog browsing ---
	`CREATE PROCEDURE getBook @i_id INT AS
		SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_pub_date, i.i_publisher,
			i.i_subject, i.i_desc, i.i_cost, i.i_srp, i.i_stock, i.i_related1
		FROM item i, author a
		WHERE i.i_a_id = a.a_id AND i.i_id = @i_id`,

	`CREATE PROCEDURE getRelated @i_id INT AS
		SELECT j.i_id, j.i_title, j.i_cost
		FROM item i, item j
		WHERE i.i_id = @i_id AND i.i_related1 = j.i_id`,

	`CREATE PROCEDURE doSubjectSearch @subject VARCHAR(60) AS
		SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_cost
		FROM item i, author a
		WHERE i.i_a_id = a.a_id AND i.i_subject = @subject
		ORDER BY i.i_title`,

	`CREATE PROCEDURE doTitleSearch @title VARCHAR(60) AS
		SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_cost
		FROM item i, author a
		WHERE i.i_a_id = a.a_id AND i.i_title LIKE @title
		ORDER BY i.i_title`,

	`CREATE PROCEDURE doAuthorSearch @author VARCHAR(20) AS
		SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_cost
		FROM item i, author a
		WHERE i.i_a_id = a.a_id AND a.a_lname LIKE @author
		ORDER BY i.i_title`,

	`CREATE PROCEDURE getNewProducts @subject VARCHAR(60) AS
		SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_pub_date, i.i_cost
		FROM item i, author a
		WHERE i.i_a_id = a.a_id AND i.i_subject = @subject
		ORDER BY i.i_pub_date DESC, i.i_title`,

	// The benchmark's most expensive frequent query (§6.1): among the last
	// 3333 orders, the 50 most popular items of a category.
	`CREATE PROCEDURE getBestSellers @subject VARCHAR(60) AS
		SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS qty
		FROM order_line ol, item i, author a, (SELECT MAX(o_id) AS m FROM orders) AS x
		WHERE ol.ol_o_id > x.m - 3333
			AND ol.ol_i_id = i.i_id AND i.i_a_id = a.a_id
			AND i.i_subject = @subject
		GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname
		ORDER BY qty DESC`,

	// --- shopping cart ---
	`CREATE PROCEDURE createCart @sc_id INT, @t DATETIME AS
		INSERT INTO shopping_cart (sc_id, sc_time) VALUES (@sc_id, @t)`,

	`CREATE PROCEDURE addCartLine @sc_id INT, @i_id INT, @qty INT AS
		INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (@sc_id, @i_id, @qty)`,

	`CREATE PROCEDURE updateCartLine @sc_id INT, @i_id INT, @qty INT AS
		UPDATE shopping_cart_line SET scl_qty = @qty WHERE scl_sc_id = @sc_id AND scl_i_id = @i_id`,

	`CREATE PROCEDURE clearCart @sc_id INT AS
		DELETE FROM shopping_cart_line WHERE scl_sc_id = @sc_id`,

	`CREATE PROCEDURE refreshCart @sc_id INT, @t DATETIME AS
		UPDATE shopping_cart SET sc_time = @t WHERE sc_id = @sc_id`,

	`CREATE PROCEDURE getCart @sc_id INT AS
		SELECT scl.scl_i_id, i.i_title, i.i_cost, scl.scl_qty
		FROM shopping_cart_line scl, item i
		WHERE scl.scl_sc_id = @sc_id AND scl.scl_i_id = i.i_id`,

	// --- order pipeline ---
	`CREATE PROCEDURE enterOrder @o_id INT, @c_id INT, @t DATETIME, @sub FLOAT, @total FLOAT, @ship VARCHAR(10) AS
		INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_ship_type, o_status)
		VALUES (@o_id, @c_id, @t, @sub, @total, @ship, 'PENDING')`,

	`CREATE PROCEDURE addOrderLine @o_id INT, @ol_id INT, @i_id INT, @qty INT, @disc FLOAT AS BEGIN
		INSERT INTO order_line (ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount)
		VALUES (@o_id, @ol_id, @i_id, @qty, @disc);
		UPDATE item SET i_stock = i_stock - @qty WHERE i_id = @i_id;
	END`,

	`CREATE PROCEDURE enterCCXact @o_id INT, @type VARCHAR(10), @num VARCHAR(20), @name VARCHAR(30), @amt FLOAT, @t DATETIME AS
		INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_xact_amt, cx_xact_date)
		VALUES (@o_id, @type, @num, @name, @amt, @t)`,

	// doBuyConfirm performs the whole purchase page as ONE transaction —
	// order header, first order line with stock decrement, credit-card
	// transaction and cart cleanup — as the SQL Server kit's stored
	// procedure would. Additional lines go through addOrderLine.
	`CREATE PROCEDURE doBuyConfirm @o_id INT, @c_id INT, @t DATETIME, @sub FLOAT, @total FLOAT,
			@ship VARCHAR(10), @i_id INT, @qty INT, @disc FLOAT, @sc_id INT AS BEGIN
		INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_ship_type, o_status)
		VALUES (@o_id, @c_id, @t, @sub, @total, @ship, 'PENDING');
		INSERT INTO order_line (ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount)
		VALUES (@o_id, 1, @i_id, @qty, @disc);
		UPDATE item SET i_stock = i_stock - @qty WHERE i_id = @i_id;
		INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_xact_amt, cx_xact_date)
		VALUES (@o_id, 'VISA', '4111111111111111', 'CARDHOLDER', @total, @t);
		DELETE FROM shopping_cart_line WHERE scl_sc_id = @sc_id;
	END`,

	// createCartWithLine creates a cart and its first line in one
	// transaction (the shopping-cart page's server-side work).
	`CREATE PROCEDURE createCartWithLine @sc_id INT, @t DATETIME, @i_id INT, @qty INT AS BEGIN
		INSERT INTO shopping_cart (sc_id, sc_time) VALUES (@sc_id, @t);
		INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (@sc_id, @i_id, @qty);
	END`,

	// --- order status ---
	`CREATE PROCEDURE getMostRecentOrder @uname VARCHAR(20) AS
		SELECT TOP 1 o.o_id, o.o_date, o.o_total, o.o_status, o.o_ship_type
		FROM customer c, orders o
		WHERE c.c_uname = @uname AND o.o_c_id = c.c_id
		ORDER BY o.o_id DESC`,

	`CREATE PROCEDURE getOrderLines @o_id INT AS
		SELECT ol.ol_i_id, i.i_title, ol.ol_qty, ol.ol_discount
		FROM order_line ol, item i
		WHERE ol.ol_o_id = @o_id AND ol.ol_i_id = i.i_id`,

	// --- administration ---
	`CREATE PROCEDURE adminUpdate @i_id INT, @cost FLOAT, @related INT AS
		UPDATE item SET i_cost = @cost, i_related1 = @related WHERE i_id = @i_id`,

	`CREATE PROCEDURE getUserName @c_id INT AS
		SELECT c_uname FROM customer WHERE c_id = @c_id`,
}

// UpdateDominatedProcs are the procedures NOT copied to cache servers (the
// paper copied 24 of 29, leaving the update-dominated ones on the backend).
var UpdateDominatedProcs = []string{
	"doBuyConfirm", "addOrderLine", "createCartWithLine", "createNewCustomer", "adminUpdate",
}

// CreateProcedures installs all procedures on the backend.
func CreateProcedures(b *core.BackendServer) error {
	for _, ddl := range ProcedureDDL {
		if _, err := b.Exec(ddl, nil); err != nil {
			return fmt.Errorf("tpcw: %w", err)
		}
	}
	return nil
}

// CachedViewDDL defines what the paper cached: projections of four tables —
// item, author, orders and order_line (§6.1). Note that orders and
// order_line are large and updated frequently; keeping them cached is what
// makes the bestseller query runnable on the mid-tier.
var CachedViewDDL = []string{
	`CREATE CACHED VIEW cv_item AS
		SELECT i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc,
			i_related1, i_stock, i_cost, i_srp
		FROM item`,
	`CREATE CACHED VIEW cv_author AS
		SELECT a_id, a_fname, a_lname FROM author`,
	`CREATE CACHED VIEW cv_orders AS
		SELECT o_id, o_c_id, o_date FROM orders`,
	`CREATE CACHED VIEW cv_order_line AS
		SELECT ol_o_id, ol_id, ol_i_id, ol_qty FROM order_line`,
}

// CachedViewIndexDDL mirrors the backend's indexes onto the cached views —
// "all indexes on the cache servers were identical to indexes on the
// backend server, as it would have been unfair to make the backend seem
// unnecessarily slow" (§6.1).
var CachedViewIndexDDL = []string{
	`CREATE INDEX cvx_item_subject ON cv_item (i_subject)`,
	`CREATE INDEX cvx_item_a_id ON cv_item (i_a_id)`,
	`CREATE INDEX cvx_item_pub_date ON cv_item (i_pub_date)`,
	`CREATE INDEX cvx_ol_i_id ON cv_order_line (ol_i_id)`,
	`CREATE INDEX cvx_orders_c_id ON cv_orders (o_c_id)`,
}

// SetupCache applies the paper's cache configuration to a cache server:
// create the four cached views with backend-equivalent indexes, and copy
// all procedures except the update-dominated five.
func SetupCache(c *core.CacheServer) error {
	for _, ddl := range CachedViewDDL {
		if err := c.CreateCachedView(ddl); err != nil {
			return fmt.Errorf("tpcw: cached view: %w", err)
		}
	}
	for _, ddl := range CachedViewIndexDDL {
		if _, err := c.Exec(ddl, nil); err != nil {
			return fmt.Errorf("tpcw: cached view index: %w", err)
		}
	}
	return c.CopyAllProceduresExcept(UpdateDominatedProcs...)
}

// SetupRemoteCache is SetupCache for a cache process that reaches its
// backend over the wire: the paper's §6.1 configuration — the four cached
// views, their indexes, and every procedure except UpdateDominatedProcs,
// copied from ProcedureDDL.
func SetupRemoteCache(rc *wire.RemoteCache) error {
	for _, ddl := range CachedViewDDL {
		if err := rc.CreateCachedView(ddl); err != nil {
			return fmt.Errorf("tpcw: cached view: %w", err)
		}
	}
	for _, ddl := range CachedViewIndexDDL {
		if _, err := rc.DB.Exec(ddl, nil); err != nil {
			return fmt.Errorf("tpcw: cached view index: %w", err)
		}
	}
	for _, text := range ProcedureDDL {
		if updateDominated(text) {
			continue
		}
		if err := rc.CopyProcedureText(text); err != nil {
			return fmt.Errorf("tpcw: procedure: %w", err)
		}
	}
	return nil
}

// updateDominated reports whether a CREATE PROCEDURE text defines one of
// UpdateDominatedProcs.
func updateDominated(ddl string) bool {
	fields := strings.Fields(ddl)
	for i := 0; i+1 < len(fields); i++ {
		if strings.EqualFold(fields[i], "PROCEDURE") {
			for _, p := range UpdateDominatedProcs {
				if strings.EqualFold(fields[i+1], p) {
					return true
				}
			}
			return false
		}
	}
	return false
}
